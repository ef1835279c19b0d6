"""Optional native (C) kernels with a guaranteed-equivalent NumPy fallback.

The paper's pitch is throughput: "over one million separate
Gaussian-eliminations" per frame pair on the MasPar.  Emulating that
batched solve with vectorized NumPy spends most of its wall-clock on
temporaries and per-operation memory traffic; a tight C loop performs the
SAME IEEE-754 arithmetic an order of magnitude faster.

This package compiles :mod:`gauss.c` on demand with the system C compiler
(no new dependencies, no NumPy headers -- the boundary is plain ``ctypes``)
and exposes one entry point, :class:`PairKernels`: the hypothesis
search's kernels, bound to one frame pair, each strictly bit-identical
to the NumPy path it shadows.  Its solve table, :class:`BoundSums`, is
the library's only Gaussian elimination; every other batched solve
(:func:`repro.core.linalg.gaussian_eliminate`) runs on NumPy.

:class:`PairKernels` binds one frame pair's planes, output buffers and
solve table (:class:`BoundSums`) once, and each hypothesis then passes
only its offsets or semi-fluid deltas and its survivors.  Bound, the
field build (:func:`repro.kernels.reference.varying_planes`) reads the
pair's after planes in place -- at each hypothesis's toroidal offset,
or at each pixel's own semi-fluid displacement -- the box sum replays
SciPy's ``uniform_filter`` (:func:`repro.kernels.reference.box_sum_planes`)
over the template's rectangle, the template solve
(:func:`repro.core.continuous.solve_accumulated` of a :class:`BoundSums`)
reads the 18 varying box sums and the pair's 10 invariant ones in place
through a per-field table of (plane base, outer stride) and, for every
system or the flat survivor indices it is given, builds each 6x6
system, solves it and evaluates the minimized error in one pass -- on
x86 CPUs with AVX2 or AVX-512F 4 or 8 systems in lockstep, one per
vector lane (:func:`native_solve_lanes` reports the width) -- and the
search's (error, rank) merge, :func:`repro.kernels.reference.merge_best`,
runs in C too.

The contract holds because

* the C kernel replicates the reference arithmetic element for element
  (see the comment block in ``gauss.c``),
* it is compiled with ``-ffp-contract=off`` so the compiler cannot fuse
  multiply-adds into differently-rounded FMAs, and
* :func:`_self_check` verifies bitwise agreement on adversarial inputs
  (random, singular, NaN, infinity, signed zeros, denormals, windows
  longer than the image) before the library is ever trusted, through
  the binding the search runs: the bound two-base template solve at
  every lane width the CPU runs, in full and through an index list; the
  field build's plane set against
  :data:`repro.kernels.reference.VARYING_FIELDS`, the bound field build
  at toroidal offsets and at per-pixel deltas; the bound merge's ties,
  NaN errors, unsolved pixels and signed zeros; any mismatch or build
  failure quietly disables it, and :func:`native_status` names the
  entry.

The box sum is the one exception to that all-or-nothing rule.  It
answers to SciPy's *internal* running-sum arithmetic, which a SciPy
release may change (``pyproject.toml`` admits ``scipy>=1.10``), so a
box-sum mismatch disables the native box sum alone --
:func:`native_box_sum_available` turns False, :func:`native_status`
names the reason, bound pairs sum with SciPy, and every other kernel
stays in use.

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
    "BoundSums",
    "PairKernels",
    "native_available",
    "native_box_sum_available",
    "native_solve_lanes",
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


def _self_check(lib: ctypes.CDLL) -> None:
    """Demand bitwise agreement with the NumPy path on adversarial inputs."""
    from ..core.continuous import solve_accumulated

    # The hypothesis search's two-base split of the adversarial rows,
    # bound, at every lane width: in full, and through an index list
    # that puts every special row in every lane position.
    split = adversarial_split()
    pixels = adversarial_pixels()
    capacity = -(-pixels.size // split.invariant.shape[-1])  # outputs for every index
    bound = BoundSums(
        np.empty((capacity,) + split.varying.shape[1:]), split.invariant, lib=lib
    ).assign(split.varying)
    for ridge in (1e-9, 0.0):
        with np.errstate(all="ignore"):
            ref = solve_accumulated(split, ridge=ridge)
        for lanes in _lane_widths(lib):
            for at in (None, pixels):
                with np.errstate(all="ignore"):
                    nat = bound.solve(ridge, at, lanes)
                rows = slice(None) if at is None else at
                if not (
                    same_bits(ref.params.reshape(-1, 6)[rows], nat[0].reshape(-1, 6))
                    and same_bits(ref.error.reshape(-1)[rows], nat[1].reshape(-1))
                    and np.array_equal(ref.singular.reshape(-1)[rows], nat[2].reshape(-1))
                ):
                    raise AssertionError(
                        f"native template solve disagrees with NumPy reference at {lanes} lanes"
                    )

    written = _FieldInts()
    count = lib.pointwise_varying_fields(written)
    if tuple(written[:count]) != VARYING_FIELDS:
        raise AssertionError(
            f"native pointwise fields write fields {tuple(written[:count])}, "
            f"not VARYING_FIELDS {VARYING_FIELDS}"
        )
    # Planes past one 128-pixel tile, read at hypothesis offsets and at
    # per-pixel deltas.
    from ..core.semifluid import shift2d

    planes = adversarial_planes()
    p, q, e, g, p_after, q_after = planes
    kernels = PairKernels(*planes, 1, lib=lib)
    offsets = adversarial_offsets(*p.shape)
    delta_y, delta_x = adversarial_deltas(3, *p.shape)
    rows, cols = np.indices(p.shape)
    for at, after, deltas in (
        ("toroidal offsets",
         [np.stack([shift2d(a, dy, dx) for dy, dx in offsets]) for a in (p_after, q_after)],
         ()),
        ("per-pixel deltas",
         [a[(rows + delta_y) % p.shape[0], (cols + delta_x) % p.shape[1]]
          for a in (p_after, q_after)],
         (delta_y, delta_x)),
    ):
        with np.errstate(all="ignore"):
            ref = varying_planes(p, q, e, g, *after)
            nat = kernels.fields(offsets[: ref.shape[0]], *deltas)
        if not same_bits(ref, nat):
            raise AssertionError(f"native pointwise fields at {at} disagree with NumPy reference")

    from ..kernels.reference import merge_best

    kernels = PairKernels(*np.zeros((6, 6, 8)), 0, lib=lib)
    for error, params, rank, hypotheses, best, pixels, deltas in adversarial_merges():
        ref = tuple(a.copy() for a in best)
        nat = tuple(a.copy() for a in best)
        merge_best(error, params, rank, hypotheses, ref, pixels, *deltas)
        merge_solved(kernels, error, params, rank, hypotheses, nat, pixels, *deltas)
        if not all(same_bits(a, b) for a, b in zip(ref, nat)):
            raise AssertionError("native merge_best disagrees with NumPy reference")


def merge_solved(
    kernels: "PairKernels", error, params, rank: int, hypotheses, best,
    pixels=None, delta_y=None, delta_x=None,
) -> None:
    """The bound merge of a given chunk's solve output into ``best``.

    The arguments are those of :func:`repro.kernels.reference.merge_best`;
    ``error`` and ``params`` are written into the bound solve outputs as
    if solved there, then :meth:`PairKernels.merge` runs.  For probing
    the merge on chosen errors (the self-check and the tests).
    """
    kernels._reserve(error.shape[0])
    kernels.sums.error[: error.size] = error.ravel()
    kernels.sums.theta[: error.size] = params.reshape(-1, 6)
    kernels.bind_best(best)
    kernels.merge(rank, hypotheses, pixels, delta_y, delta_x)


def _box_sum_check(lib: ctypes.CDLL) -> str | None:
    """Why the bound box sum disagrees with SciPy on adversarial planes, or None.

    Probes square templates and rectangular ones, a one-pixel side
    included (that axis is not summed).
    """
    stack = adversarial_box_stack()
    for half in ((1, 1), (2, 2), (4, 4), (1, 2), (4, 1), (0, 2), (2, 0)):
        kernels = PairKernels(*np.zeros((6,) + stack.shape[2:]), *half, lib=lib)
        kernels._native_box_sum = True  # the C box sum, whatever the last load decided
        with np.errstate(all="ignore"):
            ref = box_sum_planes(stack, *half)
            nat = kernels.box_sums(stack)
        if not same_bits(ref, nat):
            import scipy

            return (
                f"box_sum_planes disagrees with SciPy {scipy.__version__} "
                f"uniform_filter at half-widths {half}"
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
    denormal ``c`` rows, and one whose first pivot alone fails (unridged).
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
    fields[12, :6] = 0.0  # H's row and column 0: the pivot fails at k = 0 only
    return fields


def adversarial_split(m: int = 128, outer: int = 2, seed: int = 20261017):
    """:func:`adversarial_packed` rows as the hypothesis search's two bases.

    A :class:`~repro.kernels.reference.SplitSums` of ``(outer, m //
    outer)`` systems: a contiguous varying stack ``(outer, 18, m //
    outer)`` holding every row's varying fields, and invariant sums
    ``(10, m // outer)`` -- read at outer stride 0 -- holding those of
    the first ``m // outer`` rows (of at least 13 generated, so the
    special rows exist).  So the first outer level reproduces those
    rows exactly, specials included, and the others pair their varying
    fields with another row's invariant ones.
    """
    rows = adversarial_packed(max(m, 13), seed)[:m]
    inner = m // outer
    varying = rows[:, VARYING_FIELDS].reshape(outer, inner, len(VARYING_FIELDS))
    invariant = rows[:inner, INVARIANT_FIELDS].T
    return SplitSums(
        np.ascontiguousarray(varying.transpose(0, 2, 1)), np.ascontiguousarray(invariant)
    )


def adversarial_pixels(specials: int = 13, m: int = 128, width: int = 8) -> np.ndarray:
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


def adversarial_planes(h: int = 9, w: int = 15, seed: int = 20261018):
    """``(p, q, e, g, p_after, q_after)``: ``(h, w)`` planes that probe the
    field build.

    Magnitudes spread from 1e-300 to 1e300 (products overflow and
    underflow), with NaN, +-inf, signed zeros and denormals planted in
    every plane.
    """
    rng = np.random.default_rng(seed)
    size = (6, h, w)
    values = rng.choice((-1.0, 1.0), size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
    values[:, 1:3] = rng.normal(size=(6, 2, w))  # ordinary rows
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310)
    flat = values.reshape(6, -1)
    for k in range(6):
        at = rng.choice(flat.shape[1], size=len(specials), replace=False)
        flat[k, at] = specials
    return tuple(values)


def adversarial_offsets(h: int, w: int) -> np.ndarray:
    """``(n, 2)`` toroidal ``(dy, dx)`` offsets for an ``h x w`` plane:
    zero, small, negative, whole periods and offsets beyond +-H / +-W."""
    return np.array(
        [(0, 0), (1, -2), (-1, 3), (h, -w), (h + 2, 2 * w - 1), (-2 * h - 1, -w - 3)],
        dtype=np.intp,
    )


def adversarial_deltas(n: int, h: int, w: int, seed: int = 20261021):
    """``(delta_y, delta_x)``: contiguous ``(n, h, w)`` int64 per-pixel
    toroidal displacements for an ``h x w`` plane -- zero, small,
    negative, whole periods and up to +-3H / +-3W."""
    rng = np.random.default_rng(seed)
    delta_y = rng.integers(-3 * h, 3 * h + 1, size=(n, h, w))
    delta_x = rng.integers(-3 * w, 3 * w + 1, size=(n, h, w))
    flat_y, flat_x = delta_y.reshape(n, -1), delta_x.reshape(n, -1)
    for k, (dy, dx) in enumerate(((0, 0), (1, -1), (h, -w), (-3 * h, 3 * w), (-1, 2 * w))):
        flat_y[:, k::7], flat_x[:, k::7] = dy, dx
    return delta_y, delta_x


def adversarial_merges(seed: int = 20261020):
    """``(error, params, rank, hypotheses, best, pixels, (delta_y, delta_x))``
    cases that probe the (error, rank) merge.

    Errors equal to the running best at lower and higher ranks, ties
    inside one chunk, NaN errors, +inf errors against an unsolved +inf
    best at rank -1, and -0.0 against +0.0 both ways; every pixel, and a
    shuffled subset of distinct pixels; hypothesis displacements, and
    semi-fluid deltas.
    """
    rng = np.random.default_rng(seed)
    n, size, rank = 3, 48, 5
    values = np.array([np.inf, 0.0, -0.0, 1.0, 2.5, 5e-324])
    best_error = values[rng.integers(0, values.size, size=size)]
    best_rank = rng.integers(0, 2 * rank, size=size).astype(np.intp)
    best_rank[np.isinf(best_error)] = -1
    best = (
        best_error, best_rank, rng.normal(size=(size, 6)), rng.normal(size=size),
        rng.normal(size=size),
    )
    error = values[rng.integers(0, values.size, size=(n, size))]
    tie = rng.random(size=(n, size)) < 0.4
    error[tie] = np.broadcast_to(best_error, (n, size))[tie]  # ties both ways in rank
    error[1, ::5] = error[0, ::5]  # ties inside the chunk
    error[:, 3::7] = np.nan
    error[2, np.isinf(best_error)] = np.inf
    zeros = best_error == 0.0
    error[0, zeros] = np.where(np.signbit(best_error[zeros]), 0.0, -0.0)  # -0.0 vs +0.0
    params = rng.normal(size=(n, size, 6))
    hypotheses = np.array([(0, 1), (-1, -1), (2, 0)], dtype=np.intp)
    delta_y, delta_x = rng.integers(-4, 5, size=(2, n, size))
    pixels = rng.permutation(size)[: size // 2].astype(np.intp)
    for deltas in ((None, None), (delta_y, delta_x)):
        yield error, params, rank, hypotheses, best, None, deltas
        for k in range(n):
            yield (error[k : k + 1, pixels], params[k : k + 1, pixels], rank + k,
                   hypotheses[k : k + 1], best, pixels,
                   (None, None) if deltas[0] is None else (delta_y[k : k + 1], delta_x[k : k + 1]))


def adversarial_box_stack(n: int = 2, h: int = 5, w: int = 7, seed: int = 20261019):
    """``(n, 18, h, w)`` varying stacks that probe the box sum.

    Mixed magnitudes and signs (running-sum cancellation), a plane of
    signed zeros, denormals, and NaN / +-inf planted away from the
    borders; ``h`` and ``w`` are shorter than the widest probed window.
    """
    rng = np.random.default_rng(seed)
    size = (n, len(VARYING_FIELDS), h, w)
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


def _lane_widths(lib: ctypes.CDLL) -> tuple[int, ...]:
    """The ``solve_packed`` widths this CPU runs, narrowest first."""
    mask = lib.solve_lane_widths()
    return tuple(w for w in (1, 4, 8) if mask & w)


def _require() -> ctypes.CDLL:
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return lib


class BoundSums:
    """Template sums in buffers bound once, and their ``solve_packed`` call.

    ``varying`` is a ``(capacity, 18, *S)`` buffer whose first ``n``
    hypotheses hold the sums last written; ``invariant`` is the frame
    pair's ``(10, *S)`` sums, read at outer stride 0 (a contiguous
    float64 buffer is bound itself, so sums written into it later are
    read too).  The field table -- one plane base and outer stride per
    packed field, its invariant half included -- and the
    ``theta``/``error``/``singular`` outputs of ``capacity`` hypotheses
    are built here, once, so a solve
    (:func:`repro.core.continuous.solve_accumulated` of this object)
    passes only the hypothesis count and the survivor list.  ``lib`` is
    the loaded library (the load-time self-check passes the one it
    checks); without it, caller must check :func:`native_available`
    first.
    """

    def __init__(self, varying: np.ndarray, invariant: np.ndarray, *, lib=None) -> None:
        lib = _require() if lib is None else lib
        if not (varying.dtype == np.float64 and varying.flags.c_contiguous):
            raise ValueError("the varying sums buffer must be contiguous float64")
        self.varying = varying
        self.invariant = np.ascontiguousarray(invariant, dtype=np.float64)
        if not (
            varying.ndim >= 2 and varying.shape[1] == len(VARYING_FIELDS)
            and self.invariant.shape == (len(INVARIANT_FIELDS),) + varying.shape[2:]
        ):
            raise ValueError(
                f"expected (n, 18, *S) varying and (10, *S) invariant sums, got "
                f"{varying.shape} and {self.invariant.shape}"
            )
        self.n = 0
        #: Systems per hypothesis, ``prod(S)``: the planes' length.
        self.systems = prod(varying.shape[2:])
        plane = self.systems * _STEP
        addresses = [0] * _N_FIELDS
        outer_strides = [0] * _N_FIELDS
        for j, k in enumerate(VARYING_FIELDS):
            addresses[k] = varying.ctypes.data + j * plane
            outer_strides[k] = len(VARYING_FIELDS) * self.systems
        for j, k in enumerate(INVARIANT_FIELDS):
            addresses[k] = self.invariant.ctypes.data + j * plane
        self._addresses = _FieldAddresses(*addresses)
        self._outer_strides = _FieldInts(*outer_strides)
        count = varying.shape[0] * self.systems
        self.theta = np.empty((count, 6), dtype=np.float64)
        self.error = np.empty(count, dtype=np.float64)
        self.singular = np.empty(count, dtype=np.uint8)
        self._solve_packed = lib.solve_packed
        self._outputs = (
            _doubles(self.theta), _doubles(self.error),
            self.singular.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        )

    def assign(self, sums: np.ndarray) -> "BoundSums":
        """Copy an ``(n, 18, *S)`` (or ``(18, *S)``) stack of sums in."""
        sums = sums.reshape((-1,) + self.varying.shape[1:])
        self.n = sums.shape[0]
        np.copyto(self.varying[: self.n], sums)
        return self

    def solve(
        self, ridge: float, pixels=None, lanes: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(params, error, singular)`` of the sums last written.

        Shaped ``(n, *S[, 6])``, or ``(s[, 6])`` at ``pixels``: flat
        indices over the ``n * prod(S)`` systems, as a contiguous
        ``np.intp`` array (what ``np.flatnonzero`` returns); the kernel
        refuses one out of range, and more indices than the bound
        outputs hold are refused.  ``lanes`` picks the kernel body: 0
        the widest the CPU runs, else 1, 4 or 8 (the self-check and the
        tests pin each width in turn).  The results are views of the
        bound outputs, overwritten by the next solve.
        """
        if pixels is None:
            count, shape = self.n * self.systems, (self.n,) + self.varying.shape[2:]
        else:
            if pixels.dtype != np.intp or not pixels.flags.c_contiguous:
                raise TypeError("pixels must be a contiguous np.intp array")
            count, shape = pixels.size, pixels.shape
            if count > self.error.size:
                raise ValueError(f"{count} pixels overflow the {self.error.size} bound outputs")
        status = count and self._solve_packed(
            self._addresses, self._outer_strides, self.n, self.systems,
            1,  # pixel stride: the bound planes are contiguous
            None if pixels is None else pixels.ctypes.data, count, ridge, *self._outputs, lanes,
        )
        if status == -1:
            raise ValueError(f"solve_packed cannot run {lanes} lanes on this CPU")
        if status:
            raise IndexError(f"pixel index out of range for {self.n * self.systems} systems")
        return (
            self.theta[:count].reshape(shape + (6,)),
            self.error[:count].reshape(shape),
            self.singular[:count].view(np.bool_).reshape(shape),
        )


class PairKernels:
    """One frame pair's hypothesis kernels, with their arguments bound once.

    Built by the hypothesis search per frame pair from the pair's
    ``(H, W)`` before planes ``p, q, e, g``, its after planes ``p_after,
    q_after`` and the template's half-widths ``half_y`` and ``half_x``
    (square when ``half_x`` is None; negative ones are refused).  It
    keeps the contiguous planes, the pair's invariant sums, output
    buffers for the largest chunk seen so far (the 18-plane varying
    stack and, in :attr:`sums`, its box sums and the solve's outputs)
    and every native argument that does not change from one hypothesis
    to the next, so a hypothesis's calls pass only its offsets or deltas
    and its survivor list:

    * :meth:`fields` -- the varying stack of a chunk of ``(dy, dx)``
      hypotheses, read from the after planes in place (no shifted or
      gathered copies): at each hypothesis's toroidal offset, or with
      semi-fluid deltas at each pixel's own displacement;
    * :meth:`box_sums` -- the box sums of the pair's invariant planes,
      once, and of each varying stack, into :attr:`sums` (SciPy's,
      copied in, when the native box sum is not trusted);
    * ``solve_accumulated(kernels.sums, ...)`` -- the template solve;
    * :meth:`merge` -- the search's (error, rank) merge of that solve,
      into the best arrays given to :meth:`bind_best`.

    ``lib`` is the loaded library (the load-time self-check passes the
    one it checks); without it, caller must check
    :func:`native_available` first.
    """

    def __init__(
        self, p, q, e, g, p_after, q_after, half_y: int, half_x: int | None = None, *, lib=None
    ) -> None:
        half_x = half_y if half_x is None else half_x
        if half_y < 0 or half_x < 0:
            raise ValueError(f"template half-widths must be >= 0, got ({half_y}, {half_x})")
        self._lib = _require() if lib is None else lib
        self._planes = [
            np.ascontiguousarray(a, dtype=np.float64) for a in (p, q, e, g, p_after, q_after)
        ]
        self.shape = self._planes[0].shape
        if len(self.shape) != 2 or any(a.shape != self.shape for a in self._planes):
            raise ValueError("expected equally shaped (H, W) before and after planes")
        self._pointwise_args = tuple(_doubles(a) for a in self._planes)
        self._invariant = np.zeros((len(INVARIANT_FIELDS),) + self.shape)
        self.template = (half_y, half_x)
        # A 1x1 template sums nothing: box_sum_planes copies it.
        self._native_box_sum = _box_sum_reason is None and max(half_y, half_x) > 0
        self._best = None
        self.capacity = 0
        self._reserve(1)

    def _reserve(self, n: int) -> None:
        """Grow the bound buffers to ``n`` hypotheses (rebinding them)."""
        if n <= self.capacity:
            return
        stack = (n, len(VARYING_FIELDS)) + self.shape
        self.sums = BoundSums(np.empty(stack), self._invariant, lib=self._lib)
        self.planes = np.empty(stack)
        self._planes_out = _doubles(self.planes)
        self._chunk = np.empty((n, 2), dtype=np.intp)
        self._chunk_address = self._chunk.ctypes.data
        self._solved = (self.sums.error.ctypes.data, self.sums.theta.ctypes.data)
        self.capacity = n

    def _set_chunk(self, hypotheses) -> int:
        n = len(hypotheses)
        self._reserve(n)
        if n == 1:
            self._chunk[0] = hypotheses[0]
        else:
            self._chunk[:n] = hypotheses
        return n

    def _deltas(self, n: int, delta_y, delta_x) -> tuple:
        """The addresses of ``n`` hypotheses' semi-fluid deltas (or Nones)."""
        if delta_y is None:
            return None, None
        if not all(
            d.dtype == np.int64 and d.flags.c_contiguous and d.size == n * self.sums.systems
            for d in (delta_y, delta_x)
        ):
            raise ValueError("semi-fluid deltas must be contiguous (n, H, W) int64")
        return delta_y.ctypes.data, delta_x.ctypes.data

    def fields(self, hypotheses, delta_y=None, delta_x=None) -> np.ndarray:
        """``(n, 18, H, W)`` varying fields of ``n`` ``(dy, dx)`` hypotheses.

        Bit-identical to ``varying_planes`` over ``shift2d(p_after, dy,
        dx)`` and ``shift2d(q_after, dy, dx)``; with the semi-fluid
        deltas (contiguous ``(n, H, W)`` int64), over the after planes
        gathered at ``((y + delta_y) mod H, (x + delta_x) mod W)``
        instead.  A view of the bound stack, overwritten by the next
        call.
        """
        n = self._set_chunk(hypotheses)
        self._lib.pointwise_planes(
            *self._pointwise_args, self._chunk_address, *self._deltas(n, delta_y, delta_x),
            n, self.shape[0], self.shape[1], self._planes_out,
        )
        return self.planes[:n]

    def box_sums(self, planes: np.ndarray) -> np.ndarray:
        """Box sums of the pair's ``(10, H, W)`` invariant planes into the
        invariant sums every solve reads, or of an ``(n, 18, H, W)``
        varying stack (:meth:`fields` output, or any contiguous float64
        stack of that shape) into :attr:`sums`.  Returns the view written.
        """
        invariant = planes.ndim == 3
        if invariant:
            out = self._invariant
        else:
            self._reserve(planes.shape[0])
            out = self.sums.varying[: planes.shape[0]]
        if not (planes.dtype == np.float64 and planes.flags.c_contiguous
                and planes.shape == out.shape):
            raise ValueError(f"expected a contiguous float64 {out.shape} stack")
        if self._native_box_sum:
            h, w = self.shape
            half_y, half_x = self.template
            status = self._lib.box_sum_planes(
                planes.ctypes.data, out.ctypes.data, planes.size // (h * w), h, w,
                2 * half_y + 1, 2 * half_x + 1,
            )
            if status:
                raise MemoryError("box_sum_planes could not allocate its line buffers")
        else:
            np.copyto(out, box_sum_planes(planes, *self.template))
        if not invariant:
            self.sums.n = planes.shape[0]
        return out

    def bind_best(self, best) -> None:
        """Bind the search's flat ``(error, rank, params, u, v)`` for :meth:`merge`."""
        size = self.shape[0] * self.shape[1]
        for array, dtype, length in zip(
            best, (np.float64, np.intp, np.float64, np.float64, np.float64),
            (size, size, 6 * size, size, size),
        ):
            if not (array.dtype == dtype and array.flags.c_contiguous
                    and array.flags.writeable and array.size == length):
                raise ValueError(
                    "best arrays must be writable contiguous (error, rank, params, u, v)"
                )
        self._best = (best, tuple(a.ctypes.data for a in best))

    def merge(self, rank: int, hypotheses, pixels=None, delta_y=None, delta_x=None) -> None:
        """Merge the last template solve of :attr:`sums` into the bound best.

        The arguments are those of
        :func:`repro.kernels.reference.merge_best` without the solve
        output and ``best``: ``pixels`` those the solve took (distinct),
        the semi-fluid deltas those :meth:`fields` read.
        """
        n = self._set_chunk(hypotheses)
        count = self.sums.systems
        if pixels is not None:
            if pixels.dtype != np.intp or not pixels.flags.c_contiguous:
                raise TypeError("pixels must be a contiguous np.intp array")
            count = pixels.size
        if self._lib.merge_best(
            *self._solved, n, count, None if pixels is None else pixels.ctypes.data, rank,
            self._chunk_address, *self._deltas(n, delta_y, delta_x), self.sums.systems,
            *self._best[1],
        ):
            raise IndexError(f"pixel index out of range for {self.sums.systems} pixels")


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
        lib.solve_packed.restype = ctypes.c_int
        lib.solve_packed.argtypes = [
            _FieldAddresses,
            _FieldInts,
            *[ctypes.c_ssize_t] * 3,
            ctypes.c_void_p,
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
            *[ctypes.c_void_p] * 3,
            *[ctypes.c_ssize_t] * 3,
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.merge_best.restype = ctypes.c_int
        lib.merge_best.argtypes = [
            *[ctypes.c_void_p] * 2,
            *[ctypes.c_ssize_t] * 2,
            ctypes.c_void_p,
            ctypes.c_ssize_t,
            *[ctypes.c_void_p] * 3,
            ctypes.c_ssize_t,
            *[ctypes.c_void_p] * 5,
        ]
        lib.box_sum_planes.restype = ctypes.c_int
        lib.box_sum_planes.argtypes = [*[ctypes.c_void_p] * 2, *[ctypes.c_ssize_t] * 5]
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


def native_solve_lanes() -> int:
    """Systems the native template solve runs side by side: 8 (AVX-512F),
    4 (AVX2) or 1 (one at a time, and whenever the library is not loaded).

    Read-only: the width follows the CPU and is not a setting.
    """
    lib = _load()[0]
    return 1 if lib is None else _lane_widths(lib)[-1]
