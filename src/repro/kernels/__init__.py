"""Backend-neutral hypothesis kernels and their orchestration layer.

The SMA hypothesis-evaluation chain -- residual rows, packed
normal-equation fields, template box sums, certificate-grid window sums
and the batched 6x6 Gaussian elimination -- lives here, decoupled from
the search orchestration in :mod:`repro.core.matching`.  Two
executions plug into the same chain:

* :mod:`repro.kernels.reference` -- the serial NumPy path; THE
  bit-identity reference every other backend answers to.
* :mod:`repro.native` -- C kernels for the pointwise field build, the
  box sum, the fused template solve and the merge, bitwise-equal by
  construction and cross-checked on load.  The batched eliminate has
  no native twin outside the fused template solve.

:func:`resolve_backend` is the single selection point.  Backend names:

* ``"auto"`` (default) -- the native kernels when the library is
  available and passes its self-check, the NumPy reference otherwise.
  Bit-identical either way.
* ``"numpy"`` -- pin the pure NumPy reference (benchmarks use this to
  time the pre-native behavior honestly).
* ``"native"`` -- require the native library; raises with the
  :func:`repro.native.native_status` reason when it is unavailable
  instead of silently degrading.

Every backend is bit-identical to the NumPy reference, so every layer
(track, serve, streaming, the degradation ladder) accepts all of them.

Every resolution increments the ``kernel.backend.<resolved>`` metric so
runs record which kernels actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import METRICS
from .digest import field_digest, result_digest
from .reference import (
    A1_ZERO_COLUMNS,
    A2_ZERO_COLUMNS,
    INVARIANT_FIELDS,
    N_FIELDS,
    N_PARAMS,
    N_TRIU,
    PARAM_NAMES,
    SINGULAR_TOLERANCE,
    TRIU_INDICES,
    VARYING_FIELDS,
    SplitSums,
    box_sum,
    box_sum_planes,
    box_sum_rect,
    eliminate,
    invariant_planes,
    merge_best,
    pointwise_fields,
    residual_rows,
    strided_window_sums,
    varying_planes,
)

__all__ = [
    "A1_ZERO_COLUMNS",
    "A2_ZERO_COLUMNS",
    "INVARIANT_FIELDS",
    "KERNEL_BACKENDS",
    "N_FIELDS",
    "N_PARAMS",
    "N_TRIU",
    "PARAM_NAMES",
    "SINGULAR_TOLERANCE",
    "TRIU_INDICES",
    "VARYING_FIELDS",
    "ResolvedBackend",
    "SplitSums",
    "box_sum",
    "box_sum_planes",
    "box_sum_rect",
    "eliminate",
    "field_digest",
    "invariant_planes",
    "merge_best",
    "pointwise_fields",
    "residual_rows",
    "resolve_backend",
    "result_digest",
    "strided_window_sums",
    "varying_planes",
]

#: Backend names accepted by every entry point that takes a backend.
KERNEL_BACKENDS = ("auto", "numpy", "native")


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of one :func:`resolve_backend` call.

    ``requested`` is the caller's name; ``resolved`` is the execution
    path actually taken (``"numpy"`` or ``"native"``).  ``prefer_native``
    is handed to the hypothesis evaluator, which binds a frame pair's
    native kernels (:class:`repro.native.PairKernels`) only when it is
    True, and to :func:`~repro.core.continuous.solve_accumulated`, so
    False (``backend="numpy"``) keeps the whole chain on NumPy/SciPy.
    """

    requested: str
    resolved: str
    prefer_native: bool


def resolve_backend(name: str = "auto") -> ResolvedBackend:
    """Validate a backend name and bind it to an execution path."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from {', '.join(KERNEL_BACKENDS)})"
        )
    if name == "native":
        from ..native import native_available, native_status

        if not native_available():
            raise RuntimeError(
                f"backend='native' requested but the native kernel is "
                f"unavailable: {native_status()}"
            )
        backend = ResolvedBackend(requested=name, resolved="native", prefer_native=True)
    elif name == "numpy":
        backend = ResolvedBackend(requested=name, resolved="numpy", prefer_native=False)
    else:  # auto: historical dispatch, native when usable
        from ..native import native_available

        resolved = "native" if native_available() else "numpy"
        backend = ResolvedBackend(requested=name, resolved=resolved, prefer_native=True)
    METRICS.inc(f"kernel.backend.{backend.resolved}")
    return backend
