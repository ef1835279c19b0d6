"""Backend-neutral hypothesis kernels and their orchestration layer.

The SMA hypothesis-evaluation chain -- residual rows, packed
normal-equation fields, template box sums, certificate-grid window sums
and the batched 6x6 Gaussian elimination -- lives here, decoupled from
the search orchestration in :mod:`repro.core.matching`.  Three
executions plug into the same chain:

* :mod:`repro.kernels.reference` -- the serial NumPy path; THE
  bit-identity reference every other backend answers to.
* :mod:`repro.native` -- C kernels for the pointwise field build, the
  box sum, the fused template solve and the batched eliminate,
  bitwise-equal by construction and cross-checked on load.
* :mod:`repro.kernels.device` -- the opt-in array-API path (torch /
  cupy / numpy fallback) that runs whole hypothesis chunks on device
  under the documented tolerance of :mod:`repro.kernels.digest`.

:func:`resolve_backend` is the single selection point.  Backend names:

* ``"auto"`` (default) -- the native kernels when the library is
  available and passes its self-check, the NumPy reference otherwise.
  Bit-identical either way.
* ``"numpy"`` -- pin the pure NumPy reference (benchmarks use this to
  time the pre-native behavior honestly).
* ``"native"`` -- require the native library; raises with the
  :func:`repro.native.native_status` reason when it is unavailable
  instead of silently degrading.
* ``"device"`` -- the array-API chunk path.  Approximate by contract
  (like ``search="pyramid"``), therefore opt-in everywhere and refused
  by the layers that promise bit-identical products (serve, streaming,
  the degradation ladder).

Every resolution increments the ``kernel.backend.<resolved>`` metric so
runs record which kernels actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import METRICS
from .digest import (
    DEVICE_ATOL,
    DEVICE_RTOL,
    compare_results,
    field_digest,
    result_digest,
)
from .reference import (
    A1_ZERO_COLUMNS,
    A2_ZERO_COLUMNS,
    N_FIELDS,
    N_PARAMS,
    N_TRIU,
    PARAM_NAMES,
    SINGULAR_TOLERANCE,
    TRIU_INDICES,
    box_sum,
    box_sum_rect,
    box_sum_stack,
    eliminate,
    pointwise_fields,
    residual_rows,
    strided_window_sums,
)

__all__ = [
    "A1_ZERO_COLUMNS",
    "A2_ZERO_COLUMNS",
    "DEVICE_ATOL",
    "DEVICE_RTOL",
    "KERNEL_BACKENDS",
    "N_FIELDS",
    "N_PARAMS",
    "N_TRIU",
    "PARAM_NAMES",
    "SINGULAR_TOLERANCE",
    "TRIU_INDICES",
    "ResolvedBackend",
    "box_sum",
    "box_sum_rect",
    "box_sum_stack",
    "compare_results",
    "eliminate",
    "field_digest",
    "pointwise_fields",
    "residual_rows",
    "resolve_backend",
    "result_digest",
    "strided_window_sums",
]

#: Backend names accepted by ``track_dense``-level entry points.
KERNEL_BACKENDS = ("auto", "numpy", "native", "device")

#: The subset guaranteed bit-identical to the NumPy reference -- the
#: only backends accepted where products promise bit-identity (serve,
#: streaming, the parallel ladder).
BITWISE_BACKENDS = ("auto", "numpy", "native")


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of one :func:`resolve_backend` call.

    ``requested`` is the caller's name; ``resolved`` is the execution
    path actually taken (``"numpy"``, ``"native"`` or ``"device"``).
    On the host paths ``prefer_native`` is handed to the hypothesis
    evaluator's three native-or-NumPy dispatchers --
    :func:`repro.core.continuous.stack_pointwise_fields`,
    :func:`~repro.core.continuous.stack_box_sum` and
    :func:`~repro.core.continuous.solve_accumulated` -- so False
    (``backend="numpy"``) keeps the whole chain on NumPy/SciPy.
    ``device`` carries the live :class:`repro.kernels.device.DeviceBackend`
    on the device path.
    """

    requested: str
    resolved: str
    prefer_native: bool
    device: object | None = None

    @property
    def is_device(self) -> bool:
        return self.device is not None


def resolve_backend(name: str = "auto") -> ResolvedBackend:
    """Validate a backend name and bind it to an execution path."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from {', '.join(KERNEL_BACKENDS)})"
        )
    if name == "device":
        from .device import get_device_backend

        backend = ResolvedBackend(
            requested=name, resolved="device", prefer_native=False,
            device=get_device_backend(),
        )
    elif name == "native":
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
