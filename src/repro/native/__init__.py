"""Optional native (C) kernels with a guaranteed-equivalent NumPy fallback.

The paper's pitch is throughput: "over one million separate
Gaussian-eliminations" per frame pair on the MasPar.  Emulating that
batched solve with vectorized NumPy spends most of its wall-clock on
temporaries and per-operation memory traffic; a tight C loop performs the
SAME IEEE-754 arithmetic an order of magnitude faster.

This package compiles :mod:`gauss.c` on demand with the system C compiler
(no new dependencies, no NumPy headers -- the boundary is plain ``ctypes``)
and exposes four entry points, each strictly bit-identical to the NumPy
or SciPy path it shadows:

* :func:`native_gauss_eliminate` -- :func:`repro.core.linalg.gaussian_eliminate`;
* :func:`native_solve_packed` -- :func:`repro.core.continuous.solve_accumulated`,
  fused: it reads the 28 packed box sums in place through a per-field
  table of (base, outer stride) -- one strided array, or the
  hypothesis search's varying stack plus the frame pair's invariant
  sums at outer stride 0 -- for every system or the flat pixel indices
  it is given, builds each 6x6 system, solves it and evaluates the
  minimized error in one pass, with none of the reference's full-array
  temporaries.  On x86 CPUs with AVX2 or AVX-512F it solves 4 or 8
  systems in lockstep, one per vector lane; :func:`native_solve_lanes`
  reports the width;
* :func:`native_pointwise_planes` --
  :func:`repro.kernels.reference.varying_planes`: the 18
  hypothesis-varying fields of one before frame against a stack of
  after planes, written channels-first;
* :func:`native_box_sum_planes` -- the SciPy ``uniform_filter`` box sum
  of :func:`repro.kernels.reference.box_sum_planes`, plane by plane.

The contract holds because

* the C kernel replicates the reference arithmetic element for element
  (see the comment block in ``gauss.c``),
* it is compiled with ``-ffp-contract=off`` so the compiler cannot fuse
  multiply-adds into differently-rounded FMAs, and
* :func:`_self_check` verifies bitwise agreement of every entry point on
  adversarial inputs (random, singular, NaN, infinity, signed zeros,
  denormals, windows longer than the image) before the library is ever
  trusted -- the template solve at every lane width the CPU runs, one
  system at a time included, on one array and on a two-base split, in
  full and through an index list; the field build's plane set against
  :data:`repro.kernels.reference.VARYING_FIELDS`; any mismatch or build
  failure quietly disables it.

The box sum is the one exception to that all-or-nothing rule.  It
answers to SciPy's *internal* running-sum arithmetic, which a SciPy
release may change (``pyproject.toml`` admits ``scipy>=1.10``), so a
box-sum mismatch disables :func:`native_box_sum_planes` alone --
:func:`native_box_sum_available` turns False, :func:`native_status`
names the reason, and every other entry point stays in use.

Control knobs:

* environment variable ``REPRO_NATIVE=0`` disables native kernels,
* :func:`native_status` reports availability and the reason when
  unavailable,
* :func:`reset` forgets the memoized load outcome so the next call probes
  again (tests and long-lived processes whose build environment changed).

Build artifacts live in ``_build/`` next to this file (git-ignored), named
by a digest of the source, the compiler identity (``CC``) and the compile
flags so stale binaries are never reused -- a binary built by one compiler
must not be served when ``CC`` or the flags change.

Load outcomes are memoized per process, but *transient* failures (a full
tmpdir, a compiler that was momentarily missing or interrupted) are retried
on later probes up to :data:`_TRANSIENT_ATTEMPT_LIMIT` attempts.  Only
*permanent* outcomes -- the env opt-out and a failed bit-identity
self-check -- stick for the life of the process (a kernel that disagrees
with the reference must never be re-trusted just because time passed).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from math import prod
from pathlib import Path

import numpy as np

from ..kernels.reference import (
    INVARIANT_FIELDS,
    TRIU_INDICES,
    VARYING_FIELDS,
    SplitSums,
    box_sum_planes,
    pointwise_fields,
    varying_planes,
)
from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER

__all__ = [
    "native_available",
    "native_box_sum_available",
    "native_box_sum_planes",
    "native_gauss_eliminate",
    "native_pointwise_planes",
    "native_solve_lanes",
    "native_solve_packed",
    "native_status",
    "reset",
]

_LOG = get_logger("native")

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "gauss.c"
_BUILD_DIR = _HERE / "_build"
#: Packed normal-equation fields per pixel (repro.kernels.reference.N_FIELDS).
_N_FIELDS = 28
_STEP = np.dtype(np.float64).itemsize

#: One entry per packed field: ``solve_packed``'s plane bases, and its
#: outer strides or ``pointwise_varying_fields``' field indices.
_FieldAddresses = ctypes.c_void_p * _N_FIELDS
_FieldInts = ctypes.c_ssize_t * _N_FIELDS

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Lazily populated: None = not attempted, (lib, None) = usable,
#: (None, reason) = unusable.
_state: tuple[ctypes.CDLL | None, str | None] | None = None

#: Why the loaded library's box sum is not trusted (None: it is).
_box_sum_reason: str | None = None

#: True when the memoized failure must never be retried within this process:
#: the env opt-out, or a kernel that failed the bit-identity self-check.
_state_permanent: bool = False

#: Failed probe count for transient (environmental) failures.  Bounded so a
#: hot loop calling native_available() does not re-run the compiler forever.
_transient_attempts: int = 0
_TRANSIENT_ATTEMPT_LIMIT = 3

#: Failure classes that plausibly heal on their own: filesystem pressure,
#: a missing/busy compiler, an interrupted or timed-out build.
_TRANSIENT_EXCEPTIONS = (OSError, subprocess.SubprocessError)


def _build_digest() -> str:
    """Cache key covering everything that shapes the binary.

    Source bytes alone are not enough: the same ``gauss.c`` compiled by a
    different ``CC`` (or with different flags) is a different artifact, and
    serving the old one would silently ignore the requested toolchain.
    """
    h = hashlib.blake2b(digest_size=10)
    h.update(_SOURCE.read_bytes())
    h.update(b"\x00")
    h.update(os.environ.get("CC", "cc").encode())
    h.update(b"\x00")
    h.update("\x1f".join(_CFLAGS).encode())
    return h.hexdigest()


def _compile() -> Path:
    """Compile gauss.c into the build cache, atomically, and return the path."""
    digest = _build_digest()
    target = _BUILD_DIR / f"gauss-{digest}.so"
    if target.exists():
        return target
    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    compiler = os.environ.get("CC", "cc")
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=_BUILD_DIR)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_name, target)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return target


def _reference_eliminate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The NumPy reference, inlined to avoid a circular import with linalg."""
    from ..core.linalg import gaussian_eliminate

    return gaussian_eliminate(np.asarray(a), np.asarray(b), prefer_native=False)


def _self_check(lib: ctypes.CDLL) -> None:
    """Demand bitwise agreement with the NumPy path on adversarial systems."""
    rng = np.random.default_rng(20260806)
    a = rng.normal(size=(64, 6, 6)) * np.exp(rng.normal(scale=4.0, size=(64, 1, 1)))
    b = rng.normal(size=(64, 6))
    a[0] = 0.0  # fully singular
    a[1, 3] = a[1, 4]  # rank deficient
    a[2, 2, 2] = np.nan  # NaN pivot path
    a[3, 1, 1] = np.inf  # infinity propagation
    a[4, :, 0] = 0.0  # forces pivot failure at k=0
    a[5, 5, :] = 1e-300  # denormal-adjacent pivots
    with np.errstate(all="ignore"):  # NaN/inf probes are intentional
        x_ref, s_ref = _reference_eliminate(a, b)
        x_nat, s_nat = _call_kernel(lib, a, b)
    if not (
        np.array_equal(x_ref, x_nat, equal_nan=True) and np.array_equal(s_ref, s_nat)
    ):
        raise AssertionError("native gauss kernel disagrees with NumPy reference")

    from ..core.continuous import solve_accumulated

    # Channels-last view of a channels-first buffer, read through its
    # strides, and the hypothesis search's two-base split of the same
    # rows -- in full, and through an index list that puts every
    # special row in every lane position.
    packed = np.moveaxis(np.ascontiguousarray(adversarial_packed().T), 0, -1)
    split = adversarial_split()
    pixels = adversarial_pixels()
    runs = [(packed, None, (), slice(None))]  # the dispatched width first
    for lanes in _lane_widths(lib):
        for fields in (packed, split):
            runs += [(fields, lanes, (None, lanes), slice(None))]
            runs += [(fields, lanes, (pixels, lanes), pixels)]
    for ridge in (1e-9, 0.0):
        with np.errstate(all="ignore"):
            refs = {id(f): solve_accumulated(f, ridge=ridge, prefer_native=False)
                    for f in (packed, split)}
        for fields, lanes, extra, at in runs:
            ref = refs[id(fields)]
            with np.errstate(all="ignore"):
                nat = _call_solve_packed(lib, fields, ridge, *extra)
            if not (
                same_bits(ref.params.reshape(-1, 6)[at], nat[0].reshape(-1, 6))
                and same_bits(ref.error.reshape(-1)[at], nat[1].reshape(-1))
                and np.array_equal(ref.singular.reshape(-1)[at], nat[2].reshape(-1))
            ):
                width = "" if lanes is None else f" at {lanes} lanes"
                layout = "" if fields is packed else " on the two-base split"
                raise AssertionError(
                    f"native template solve disagrees with NumPy reference{layout}{width}"
                )

    written = _FieldInts()
    count = lib.pointwise_varying_fields(written)
    if tuple(written[:count]) != VARYING_FIELDS:
        raise AssertionError(
            f"native pointwise fields write fields {tuple(written[:count])}, "
            f"not VARYING_FIELDS {VARYING_FIELDS}"
        )
    p, q, e, g, p_after, q_after = adversarial_planes()
    with np.errstate(all="ignore"):
        ref = varying_planes(p, q, e, g, p_after, q_after)
        nat = _call_pointwise_planes(lib, p, q, e, g, p_after, q_after)
    if not same_bits(ref, nat):
        raise AssertionError("native pointwise fields disagree with NumPy reference")


def _box_sum_check(lib: ctypes.CDLL) -> str | None:
    """Why the box sum disagrees with SciPy on adversarial planes, or None."""
    stack = adversarial_box_stack()
    for half in (1, 2, 4):
        with np.errstate(all="ignore"):
            ref = box_sum_planes(stack, half)
            nat = _call_box_sum_planes(lib, stack, 2 * half + 1, 2 * half + 1)
        if not same_bits(ref, nat):
            import scipy

            return (
                f"box_sum_planes disagrees with SciPy {scipy.__version__} "
                f"uniform_filter at half-width {half}"
            )
    return None


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same places and identical bytes elsewhere
    (signed zeros included; NaN payloads are not compared)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


def adversarial_packed(m: int = 128, seed: int = 20261017) -> np.ndarray:
    """``(m, 28)`` packed template sums that probe every fused-solve branch.

    Well-posed systems summed from random residual samples, then
    all-zero, rank-deficient, NaN, +-inf, signed-zero, negative and
    denormal ``c`` rows.
    """
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(4, m, 9)) * np.exp(rng.normal(scale=2.0, size=(4, m, 1)))
    e, g = 1.0 + samples[0] ** 2, 1.0 + samples[1] ** 2
    fields = pointwise_fields(samples[0], samples[1], samples[2], samples[3], e, g).sum(axis=1)
    fields[0] = 0.0
    fields[1] = pointwise_fields(0.5, -0.25, 0.75, 0.125, 1.25, 1.0625) * 9.0  # rank 2
    fields[2, 3] = np.nan
    fields[3, 0] = np.inf
    fields[4, 22] = -np.inf
    fields[5] = -0.0
    # -0.0 off the diagonal and a zero gradient: the ridge's +0.0 adds
    # decide the signs of the zero factors and so of theta's zeros.
    fields[6, :27] = -0.0
    fields[6, [k for k, (i, j) in enumerate(TRIU_INDICES) if i == j]] = np.arange(1.0, 7.0)
    fields[6, 21:24] = 0.0
    fields[7, 27] = -fields[7, 27]  # negative c
    fields[8, 21:] = 0.0
    fields[8, 27] = 5e-324  # denormal c, zero gradient
    fields[9] *= 1e-300
    fields[10] *= 1e300
    fields[11, 27] = np.nan
    return fields


def adversarial_split(m: int = 128, outer: int = 2, seed: int = 20261017):
    """:func:`adversarial_packed` rows as the hypothesis search's two bases.

    A :class:`~repro.kernels.reference.SplitSums` of ``(outer, m //
    outer)`` systems: a contiguous varying stack ``(outer, 18, m //
    outer)`` holding every row's varying fields, and invariant sums
    ``(10, m // outer)`` -- read at outer stride 0 -- holding those of
    the first ``m // outer`` rows (of at least 12 generated, so the
    special rows exist).  So the first outer level reproduces those
    rows exactly, specials included, and the others pair their varying
    fields with another row's invariant ones.
    """
    rows = adversarial_packed(max(m, 12), seed)[:m]
    inner = m // outer
    varying = rows[:, VARYING_FIELDS].reshape(outer, inner, len(VARYING_FIELDS))
    invariant = rows[:inner, INVARIANT_FIELDS].T
    return SplitSums(
        np.ascontiguousarray(varying.transpose(0, 2, 1)), np.ascontiguousarray(invariant)
    )


def adversarial_pixels(specials: int = 12, m: int = 128, width: int = 8) -> np.ndarray:
    """Flat indices into :func:`adversarial_packed` rows for the lane kernels.

    One tile of ``width`` well-posed rows per (special row, lane
    position) pair, with the special row at that position, then a short
    tail of special rows so the last group is partial.  Any width that
    divides ``width`` sees each special row in each of its lanes.
    """
    fill = np.arange(specials, m)
    tile = np.arange(specials * width)  # tile t holds special row t // width
    tiles = fill[(tile[:, None] * width + np.arange(width)) % fill.size]
    tiles[tile, tile % width] = tile // width
    return np.concatenate([tiles.ravel(), np.arange(width - 3)])


def adversarial_planes(n: int = 3, h: int = 5, w: int = 7, seed: int = 20261018):
    """``(p, q, e, g, p_after, q_after)`` planes that probe the field build.

    Magnitudes spread from 1e-300 to 1e300 (products overflow and
    underflow), with NaN, +-inf, signed zeros and denormals planted in
    every input; the after planes carry ``n`` hypotheses.
    """
    rng = np.random.default_rng(seed)
    size = (6, n, h, w)
    values = rng.choice((-1.0, 1.0), size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
    values[:, :, 1:3] = rng.normal(size=(6, n, 2, w))  # ordinary rows
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310)
    flat = values.reshape(6, -1)
    for k in range(6):
        at = rng.choice(flat.shape[1], size=len(specials), replace=False)
        flat[k, at] = specials
    p, q, e, g = (np.ascontiguousarray(values[k, 0]) for k in range(4))
    return p, q, e, g, values[4], values[5]


def adversarial_box_stack(n: int = 2, h: int = 5, w: int = 7, seed: int = 20261019):
    """``(n, 28, h, w)`` channels-first planes that probe the box sum.

    Mixed magnitudes and signs (running-sum cancellation), a plane of
    signed zeros, denormals, and NaN / +-inf planted away from the
    borders; ``h`` and ``w`` are shorter than the widest probed window.
    """
    rng = np.random.default_rng(seed)
    size = (n, _N_FIELDS, h, w)
    stack = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size=size)
    stack[0, 0] = -0.0
    stack[0, 1] = 5e-324 * rng.integers(-3, 4, size=(h, w))
    stack[0, 2, 0, 0] = 1e300
    stack[0, 2, h - 1, w - 1] = -1e300
    stack[n - 1, 3, h // 2, w // 2] = np.nan
    stack[n - 1, 4, h - 1, 0] = np.inf
    stack[n - 1, 5, 0, w - 1] = -np.inf
    return stack


def _doubles(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _call_kernel(
    lib: ctypes.CDLL, matrices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = np.array(matrices, dtype=np.float64, copy=True, order="C")
    b = np.array(rhs, dtype=np.float64, copy=True, order="C")
    n = a.shape[-1]
    batch_shape = a.shape[:-2]
    a = a.reshape((-1, n, n))
    b = b.reshape((-1, n))
    m = a.shape[0]
    x = np.zeros((m, n), dtype=np.float64)
    singular = np.zeros(m, dtype=np.uint8)
    if m:
        lib.gauss_eliminate(
            _doubles(a), _doubles(b), _doubles(x),
            singular.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
            ctypes.c_ssize_t(m),
            ctypes.c_ssize_t(n),
        )
    return (
        x.reshape(batch_shape + (n,)),
        singular.astype(bool).reshape(batch_shape),
    )


def _packed_bases(fields):
    """The systems' shape and ``(array, field axis, packed indices)`` per base.

    One base for a ``(..., 28)`` array; two for a
    :class:`~repro.kernels.reference.SplitSums`, whose invariant base
    lacks the varying stack's leading axes.
    """
    if isinstance(fields, SplitSums):
        varying = np.asarray(fields.varying, dtype=np.float64)
        invariant = np.asarray(fields.invariant, dtype=np.float64)
        axis = varying.ndim - invariant.ndim
        if not (
            axis >= 0 and varying.shape[axis] == len(VARYING_FIELDS)
            and invariant.shape[0] == len(INVARIANT_FIELDS)
            and varying.shape[axis + 1 :] == invariant.shape[1:]
        ):
            raise ValueError(
                f"expected (..., 18, *S) varying and (10, *S) invariant sums, got "
                f"{varying.shape} and {invariant.shape}"
            )
        shape = varying.shape[:axis] + varying.shape[axis + 1 :]
        return shape, [(varying, axis, VARYING_FIELDS), (invariant, 0, INVARIANT_FIELDS)]
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim == 0 or fields.shape[-1] != _N_FIELDS:
        raise ValueError(f"expected 28 packed fields, got shape {fields.shape}")
    return fields.shape[:-1], [(fields, fields.ndim - 1, range(_N_FIELDS))]


def _solve_table(shape: tuple[int, ...], bases):
    """``solve_packed``'s ``(base, outer_stride, outer, inner, pixel_stride)``.

    Axis 0 of the systems is the outer level, with each base's own
    stride (0 where a base lacks it: the invariant sums under a
    hypothesis stack); the axes after it must walk one strided run with
    one pixel stride in every base -- true of any contiguous array, a
    box sum's channels-last view, a gathered survivor subset and the
    search's two bases.  Fewer than two system axes are one outer
    level.  Strides are in doubles.  None means a copy is needed.
    """
    ndim = max(len(shape), 2)
    shape = (1,) * (ndim - len(shape)) + tuple(shape)
    addresses = [0] * _N_FIELDS
    outer_strides = [0] * _N_FIELDS
    pixel_stride = None
    for array, axis, packed in bases:
        strides = array.strides
        if any(s % _STEP for s in strides):
            return None
        strides = (0,) * (ndim + 1 - len(strides)) + strides[:axis] + strides[axis + 1 :]
        axes = [(n, s) for n, s in zip(shape[1:], strides[1:]) if n != 1]
        if any(outer != n * inner for (_, outer), (n, inner) in zip(axes, axes[1:])):
            return None
        stride = axes[-1][1] // _STEP if axes else 0
        if pixel_stride not in (None, stride):
            return None
        pixel_stride = stride
        data, field_stride = array.ctypes.data, array.strides[axis]
        for j, k in enumerate(packed):
            addresses[k] = data + j * field_stride
            outer_strides[k] = strides[0] // _STEP
    return (
        _FieldAddresses(*addresses), _FieldInts(*outer_strides),
        shape[0], prod(shape[1:]), pixel_stride,
    )


def _call_solve_packed(
    lib: ctypes.CDLL, fields, ridge: float, pixels=None, lanes: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``solve_packed`` on ``fields``, or at flat indices ``pixels`` over them.

    ``fields`` is one ``(..., 28)`` array or a
    :class:`~repro.kernels.reference.SplitSums`.  ``lanes`` picks the
    kernel body: 0 the widest the CPU runs, else 1, 4 or 8 (the
    self-check and the tests pin each width in turn).
    """
    shape, bases = _packed_bases(fields)
    m = prod(shape)
    index = None
    if pixels is None:
        batch_shape = shape
    else:
        index = np.asarray(pixels)
        if index.dtype.kind not in "iu":
            raise TypeError(f"pixels must be integer indices, got {index.dtype}")
        if index.size and (index.min() < -m or index.max() >= m):
            raise IndexError(f"pixel index out of range for {m} systems")
        batch_shape = index.shape
        index = np.ascontiguousarray(np.where(index < 0, index + m, index).ravel(), dtype=np.intp)
    count = prod(batch_shape)
    theta = np.empty((count, 6), dtype=np.float64)
    error = np.empty(count, dtype=np.float64)
    singular = np.empty(count, dtype=np.uint8)
    if count:
        table = _solve_table(shape, bases)
        if table is None:
            packed = fields.packed() if len(bases) > 1 else bases[0][0]
            shape, bases = _packed_bases(np.ascontiguousarray(packed))
            table = _solve_table(shape, bases)
        status = lib.solve_packed(
            *table,
            None if index is None else index.ctypes.data_as(ctypes.POINTER(ctypes.c_ssize_t)),
            ctypes.c_ssize_t(count),
            ctypes.c_double(ridge),
            _doubles(theta), _doubles(error),
            singular.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
            ctypes.c_int(lanes),
        )
        if status:
            raise ValueError(f"solve_packed cannot run {lanes} lanes on this CPU")
    return (
        theta.reshape(batch_shape + (6,)),
        error.reshape(batch_shape)[()],
        singular.view(np.bool_).reshape(batch_shape),
    )


def _lane_widths(lib: ctypes.CDLL) -> tuple[int, ...]:
    """The ``solve_packed`` widths this CPU runs, narrowest first."""
    mask = lib.solve_lane_widths()
    return tuple(w for w in (1, 4, 8) if mask & w)


def _call_pointwise_planes(
    lib: ctypes.CDLL, p, q, e, g, p_after, q_after
) -> np.ndarray:
    before = [np.ascontiguousarray(a, dtype=np.float64) for a in (p, q, e, g)]
    after = [np.ascontiguousarray(a, dtype=np.float64) for a in (p_after, q_after)]
    shape = before[0].shape
    if len(shape) != 2 or any(a.shape != shape for a in before) or any(
        a.shape != after[0].shape or a.shape[1:] != shape for a in after
    ):
        raise ValueError("expected (H, W) before planes and (n, H, W) after planes")
    n = after[0].shape[0]
    out = np.empty((n, len(VARYING_FIELDS)) + shape, dtype=np.float64)
    if out.size:
        lib.pointwise_planes(
            *(_doubles(a) for a in before), *(_doubles(a) for a in after),
            ctypes.c_ssize_t(n), ctypes.c_ssize_t(shape[0] * shape[1]), _doubles(out),
        )
    return out


def _call_box_sum_planes(
    lib: ctypes.CDLL, planes: np.ndarray, side_y: int, side_x: int
) -> np.ndarray:
    planes = np.ascontiguousarray(planes, dtype=np.float64)
    if planes.ndim < 2 or side_y < 1 or side_x < 1:
        raise ValueError(f"expected (..., H, W) planes and sides >= 1, got {planes.shape}")
    out = np.empty_like(planes)
    if out.size:
        h, w = planes.shape[-2:]
        status = lib.box_sum_planes(
            _doubles(planes), _doubles(out), ctypes.c_ssize_t(planes.size // (h * w)),
            ctypes.c_ssize_t(h), ctypes.c_ssize_t(w),
            ctypes.c_ssize_t(side_y), ctypes.c_ssize_t(side_x),
        )
        if status:
            raise MemoryError("box_sum_planes could not allocate its line buffers")
    return out


def _load() -> tuple[ctypes.CDLL | None, str | None]:
    global _state, _state_permanent, _transient_attempts, _box_sum_reason
    if _state is not None:
        retryable = (
            _state[0] is None
            and not _state_permanent
            and _transient_attempts < _TRANSIENT_ATTEMPT_LIMIT
        )
        if not retryable:
            return _state
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        _state = (None, "disabled by REPRO_NATIVE=0")
        _state_permanent = True
        METRICS.set_gauge("native.available", 0)
        log_event(_LOG, logging.INFO, "native.disabled", reason="REPRO_NATIVE=0")
        return _state
    try:
        with TRACER.span("native.build"):
            lib = ctypes.CDLL(str(_compile()))
        lib.gauss_eliminate.restype = ctypes.c_int
        lib.gauss_eliminate.argtypes = [
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_ubyte),
            ctypes.c_ssize_t,
            ctypes.c_ssize_t,
        ]
        lib.solve_packed.restype = ctypes.c_int
        lib.solve_packed.argtypes = [
            _FieldAddresses,
            _FieldInts,
            *[ctypes.c_ssize_t] * 3,
            ctypes.POINTER(ctypes.c_ssize_t),
            ctypes.c_ssize_t,
            ctypes.c_double,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_ubyte),
            ctypes.c_int,
        ]
        lib.solve_lane_widths.restype = ctypes.c_int
        lib.solve_lane_widths.argtypes = []
        lib.pointwise_varying_fields.restype = ctypes.c_int
        lib.pointwise_varying_fields.argtypes = [_FieldInts]
        lib.pointwise_planes.restype = ctypes.c_int
        lib.pointwise_planes.argtypes = [
            *[ctypes.POINTER(ctypes.c_double)] * 6,
            ctypes.c_ssize_t,
            ctypes.c_ssize_t,
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.box_sum_planes.restype = ctypes.c_int
        lib.box_sum_planes.argtypes = [
            *[ctypes.POINTER(ctypes.c_double)] * 2,
            *[ctypes.c_ssize_t] * 5,
        ]
        with TRACER.span("native.self_check"):
            _self_check(lib)
            box_sum_reason = _box_sum_check(lib)
    except _TRANSIENT_EXCEPTIONS as exc:
        _transient_attempts += 1
        reason = f"{type(exc).__name__}: {exc}"
        if _transient_attempts >= _TRANSIENT_ATTEMPT_LIMIT:
            reason += (
                f" (giving up after {_TRANSIENT_ATTEMPT_LIMIT} attempts;"
                " call repro.native.reset() to retry)"
            )
        _state = (None, reason)
        _state_permanent = False
        METRICS.set_gauge("native.available", 0)
        METRICS.inc("native.load.transient_failure")
        log_event(
            _LOG, logging.WARNING, "native.unavailable",
            reason=reason, transient=True, attempt=_transient_attempts,
        )
        return _state
    except Exception as exc:  # wrong kernel / bad source: never re-trust
        _state = (None, f"{type(exc).__name__}: {exc}")
        _state_permanent = True
        METRICS.set_gauge("native.available", 0)
        log_event(
            _LOG, logging.WARNING, "native.unavailable",
            reason=f"{type(exc).__name__}: {exc}", transient=False,
        )
        return _state
    _state = (lib, None)
    _state_permanent = False
    _transient_attempts = 0
    _box_sum_reason = box_sum_reason
    METRICS.set_gauge("native.available", 1)
    METRICS.set_gauge("native.box_sum.available", int(box_sum_reason is None))
    log_event(_LOG, logging.INFO, "native.loaded", source=_SOURCE.name)
    if box_sum_reason is not None:
        log_event(_LOG, logging.WARNING, "native.box_sum.disabled", reason=box_sum_reason)
    return _state


def reset() -> None:
    """Forget the memoized load outcome; the next probe starts from scratch.

    The loader memoizes one outcome per process.  Tests that flip
    ``REPRO_NATIVE`` or ``CC``, and long-lived processes whose build
    environment has been repaired (or that want to retry after the
    transient-attempt budget is exhausted), call this to force a fresh
    probe.  Safe to call at any time; already-dispatched solves are
    unaffected.
    """
    global _state, _state_permanent, _transient_attempts, _box_sum_reason
    _state = None
    _state_permanent = False
    _transient_attempts = 0
    _box_sum_reason = None


def native_available() -> bool:
    """True when the compiled kernel is loaded and passed its self-check."""
    return _load()[0] is not None


def native_box_sum_available() -> bool:
    """True when the library is loaded AND its box sum matches SciPy."""
    return _load()[0] is not None and _box_sum_reason is None


def native_status() -> str:
    """``"available"`` when every entry point is trusted, else the reason.

    A library whose box sum alone disagrees with the installed SciPy
    reports ``"available; <reason>"``: the other entry points stay in use.
    """
    lib, reason = _load()
    if lib is None:
        return reason or "unavailable"
    return "available" if _box_sum_reason is None else f"available; {_box_sum_reason}"


def native_gauss_eliminate(
    matrices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve with the native kernel.  Caller must check availability first."""
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return _call_kernel(lib, matrices, rhs)


def native_solve_packed(
    fields, ridge: float, pixels=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(params, error, singular)`` of packed template sums.

    ``fields`` is one ``(..., 28)`` array or a
    :class:`~repro.kernels.reference.SplitSums` (a varying and an
    invariant base).  Bit-identical to ``solve_accumulated(fields,
    ridge, prefer_native=False)``; with ``pixels`` (flat indices over
    the systems) to solving those systems alone, without gathering
    them.  Strided float64 bases that share one pixel walk are read in
    place.  Caller must check availability first.
    """
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return _call_solve_packed(lib, fields, ridge, pixels)


def native_solve_lanes() -> int:
    """Systems the native template solve runs side by side: 8 (AVX-512F),
    4 (AVX2) or 1 (one at a time, and whenever the library is not loaded).

    Read-only: the width follows the CPU and is not a setting.
    """
    lib = _load()[0]
    return 1 if lib is None else _lane_widths(lib)[-1]


def native_pointwise_planes(p, q, e, g, p_after, q_after) -> np.ndarray:
    """``(n, 18, H, W)`` hypothesis-varying pointwise fields of ``(H, W)``
    before planes and ``(n, H, W)`` after planes.

    Channels-first, plane ``j`` holding field ``VARYING_FIELDS[j]``;
    bit-identical to ``varying_planes(p, q, e, g, p_after, q_after)`` of
    :mod:`repro.kernels.reference`.  Caller must check
    :func:`native_available` first.
    """
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return _call_pointwise_planes(lib, p, q, e, g, p_after, q_after)


def native_box_sum_planes(planes: np.ndarray, side_y: int, side_x: int) -> np.ndarray:
    """Box sums of every ``(H, W)`` plane of ``(..., H, W)`` over a
    ``side_y x side_x`` window (odd sides, zero outside the image).

    Bit-identical to ``uniform_filter(planes, size=(1, ..., side_y,
    side_x), mode="constant") * float(side_y * side_x)`` on the SciPy the
    load-time check ran against.  Caller must check
    :func:`native_box_sum_available` first.
    """
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    if _box_sum_reason is not None:
        raise RuntimeError(f"native box sum unavailable: {_box_sum_reason}")
    return _call_box_sum_planes(lib, planes, side_y, side_x)
