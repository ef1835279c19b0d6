"""Batched Gaussian elimination.

The paper leans on dense Gaussian elimination everywhere: "least
squares surface fitting ... leads to solving a 6 x 6 matrix using the
Gaussian-elimination method", "169 Gaussian-eliminations are performed
to solve for the motion parameters", "over one million separate
Gaussian-eliminations are needed to estimate all of the local surface
patch parameters".  On a SIMD machine each PE runs the same
elimination schedule in lockstep on its own system, which is exactly a
*batched* solve.

:func:`gaussian_eliminate` implements partial-pivot Gaussian
elimination with back substitution, vectorized over arbitrary leading
batch dimensions -- the SIMD-lockstep rendering of the paper's kernel.
The native template solve (``solve_packed`` in ``repro/native/gauss.c``)
renders it once more at the scale of one CPU: 4 or 8 systems share one
vector register per matrix entry, each lane picks its own pivot by
mask and blend, and the bits match this reference lane for lane.
Singular (or numerically singular) systems are reported per batch
element rather than raising, because in the SMA inner loop a flat
surface patch simply means "no usable normal here" and the caller
masks the pixel out.
"""

from __future__ import annotations

import numpy as np

# The reference elimination arithmetic lives in the backend-neutral
# kernels module; SINGULAR_TOLERANCE is re-exported for compatibility.
from ..kernels.reference import SINGULAR_TOLERANCE  # noqa: F401
from ..kernels.reference import eliminate as _reference_eliminate


def gaussian_eliminate(
    matrices: np.ndarray, rhs: np.ndarray, *, prefer_native: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A x = b`` for a batch of dense systems by Gaussian elimination.

    Parameters
    ----------
    matrices:
        Array of shape ``(..., n, n)``.
    rhs:
        Array of shape ``(..., n)``.
    prefer_native:
        When True (the default) and the compiled kernel in
        :mod:`repro.native` is available, dispatch to it.  The kernel is
        bit-identical to the NumPy path (it performs the same IEEE-754
        operations in the same order and is cross-checked on load), just
        free of per-operation temporaries.  Pass False to pin the NumPy
        reference path -- benchmarks use this to time the pre-native
        behaviour honestly.

    Returns
    -------
    solutions:
        Array of shape ``(..., n)``; rows flagged singular contain zeros.
    singular:
        Boolean array of shape ``(...,)`` -- True where elimination hit a
        pivot below :data:`SINGULAR_TOLERANCE`.

    Notes
    -----
    Partial pivoting is performed in lockstep across the batch: at step
    ``k`` every system independently selects its own pivot row, which is
    how a per-PE elimination behaves on a SIMD array (the *schedule* is
    shared, the *data* is not).
    """
    a = np.asarray(matrices, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrices must be (..., n, n), got {a.shape}")
    if b.shape != a.shape[:-1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrices {a.shape}")

    if prefer_native:
        from ..native import native_available, native_gauss_eliminate

        if native_available():
            return native_gauss_eliminate(a, b)

    return _reference_eliminate(a, b)


def solve_normal_equations(
    design: np.ndarray, residual: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve ``min ||W (design @ theta + residual)||^2``.

    Forms the normal equations ``(A^T W A) theta = -A^T W r`` and solves
    them with :func:`gaussian_eliminate` -- the paper's formulation
    ("differentiating with respect to the six unknown motion parameters
    and setting the six first partial derivatives to zero ... solved
    using Gaussian-elimination").

    Parameters
    ----------
    design:
        ``(..., terms, n)`` design matrix A.
    residual:
        ``(..., terms)`` constant residual r (the value of each error
        term at theta = 0).
    weights:
        Optional ``(..., terms)`` nonnegative weights W.

    Returns
    -------
    theta:
        ``(..., n)`` minimizer.
    singular:
        ``(...,)`` singular-system flags.
    """
    a = np.asarray(design, dtype=np.float64)
    r = np.asarray(residual, dtype=np.float64)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        aw = a * w[..., None]
    else:
        aw = a
    ata = np.einsum("...ti,...tj->...ij", aw, a)
    atr = np.einsum("...ti,...t->...i", aw, r)
    return gaussian_eliminate(ata, -atr)
