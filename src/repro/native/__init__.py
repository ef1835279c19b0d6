"""Optional native (C) kernels with a guaranteed-equivalent NumPy fallback.

The paper's pitch is throughput: "over one million separate
Gaussian-eliminations" per frame pair on the MasPar.  Emulating that
batched solve with vectorized NumPy spends most of its wall-clock on
temporaries and per-operation memory traffic; a tight C loop performs the
SAME IEEE-754 arithmetic an order of magnitude faster.

This package compiles :mod:`gauss.c` on demand with the system C compiler
(no new dependencies, no NumPy headers -- the boundary is plain ``ctypes``)
and exposes two entry points, each strictly bit-identical to the NumPy
path it shadows:

* :func:`native_gauss_eliminate` -- :func:`repro.core.linalg.gaussian_eliminate`;
* :func:`native_solve_packed` -- :func:`repro.core.continuous.solve_accumulated`,
  fused: it reads the 28 packed box sums through their strides, builds
  each 6x6 system, solves it and evaluates the minimized error in one
  pass, with none of the reference's full-array temporaries.

The contract holds because

* the C kernel replicates the reference arithmetic element for element
  (see the comment block in ``gauss.c``),
* it is compiled with ``-ffp-contract=off`` so the compiler cannot fuse
  multiply-adds into differently-rounded FMAs, and
* :func:`_self_check` verifies bitwise agreement of both entry points on
  batches of adversarial systems (random, singular, NaN, infinity, signed
  zeros) before the library is ever trusted; any mismatch or build
  failure quietly disables it.

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
from pathlib import Path

import numpy as np

from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER

__all__ = [
    "native_available",
    "native_gauss_eliminate",
    "native_solve_packed",
    "native_status",
    "reset",
]

_LOG = get_logger("native")

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "gauss.c"
_BUILD_DIR = _HERE / "_build"
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Lazily populated: None = not attempted, (lib, None) = usable,
#: (None, reason) = unusable.
_state: tuple[ctypes.CDLL | None, str | None] | None = None

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

    # Channels-last view of a channels-first buffer: the layout the box
    # sum hands over, read through its strides.
    packed = np.moveaxis(np.ascontiguousarray(adversarial_packed().T), 0, -1)
    for ridge in (1e-9, 0.0):
        with np.errstate(all="ignore"):
            ref = solve_accumulated(packed, ridge=ridge, prefer_native=False)
            nat = _call_solve_packed(lib, packed, ridge)
        if not (
            same_bits(ref.params, nat[0]) and same_bits(ref.error, nat[1])
            and np.array_equal(ref.singular, nat[2])
        ):
            raise AssertionError("native template solve disagrees with NumPy reference")


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
    from ..kernels.reference import TRIU_INDICES, pointwise_fields

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
            a.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            b.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            x.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            singular.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
            ctypes.c_ssize_t(m),
            ctypes.c_ssize_t(n),
        )
    return (
        x.reshape(batch_shape + (n,)),
        singular.astype(bool).reshape(batch_shape),
    )


def _packed_layout(fields: np.ndarray) -> tuple[int, int, int, int, int] | None:
    """``(outer, outer_stride, inner, pixel_stride, field_stride)`` in doubles.

    Axis 0 is the outer level; the axes between it and the 28 fields
    must walk one strided run -- true of any contiguous array, a box
    sum's channels-last view and a gathered survivor subset.  None means
    a copy is needed.
    """
    step = fields.itemsize
    if any(s % step for s in fields.strides):
        return None
    axes = [(n, s) for n, s in zip(fields.shape[1:-1], fields.strides[1:-1]) if n != 1]
    if any(outer != n * inner for (_, outer), (n, inner) in zip(axes, axes[1:])):
        return None
    inner = int(np.prod(fields.shape[1:-1], dtype=np.int64))
    pixel_stride = axes[-1][1] if axes else 0
    return (
        fields.shape[0], fields.strides[0] // step, inner, pixel_stride // step,
        fields.strides[-1] // step,
    )


def _call_solve_packed(
    lib: ctypes.CDLL, fields: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim == 0 or fields.shape[-1] != 28:
        raise ValueError(f"expected 28 packed fields, got shape {fields.shape}")
    batch_shape = fields.shape[:-1]
    m = int(np.prod(batch_shape, dtype=np.int64))
    theta = np.empty((m, 6), dtype=np.float64)
    error = np.empty(m, dtype=np.float64)
    singular = np.empty(m, dtype=np.uint8)
    if m:
        if fields.ndim == 1:
            fields = fields[None]
        layout = _packed_layout(fields)
        if layout is None:
            fields = np.ascontiguousarray(fields)
            layout = _packed_layout(fields)
        lib.solve_packed(
            fields.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            *(ctypes.c_ssize_t(v) for v in layout),
            ctypes.c_double(ridge),
            theta.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            error.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            singular.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        )
    return (
        theta.reshape(batch_shape + (6,)),
        error.reshape(batch_shape)[()],
        singular.view(np.bool_).reshape(batch_shape),
    )


def _load() -> tuple[ctypes.CDLL | None, str | None]:
    global _state, _state_permanent, _transient_attempts
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
            ctypes.POINTER(ctypes.c_double),
            *[ctypes.c_ssize_t] * 5,
            ctypes.c_double,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_ubyte),
        ]
        with TRACER.span("native.self_check"):
            _self_check(lib)
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
    METRICS.set_gauge("native.available", 1)
    log_event(_LOG, logging.INFO, "native.loaded", source=_SOURCE.name)
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
    global _state, _state_permanent, _transient_attempts
    _state = None
    _state_permanent = False
    _transient_attempts = 0


def native_available() -> bool:
    """True when the compiled kernel is loaded and passed its self-check."""
    return _load()[0] is not None


def native_status() -> str:
    """``"available"`` or the reason the native kernel is unusable."""
    lib, reason = _load()
    return "available" if lib is not None else reason or "unavailable"


def native_gauss_eliminate(
    matrices: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve with the native kernel.  Caller must check availability first."""
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return _call_kernel(lib, matrices, rhs)


def native_solve_packed(
    fields: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(params, error, singular)`` of ``(..., 28)`` packed template sums.

    Bit-identical to ``solve_accumulated(fields, ridge, prefer_native=False)``.
    Any strided float64 layout is read in place.  Caller must check
    availability first.
    """
    lib, reason = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {reason}")
    return _call_solve_packed(lib, fields, ridge)
