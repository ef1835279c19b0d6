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
It is :func:`repro.kernels.reference.eliminate` under its public name,
and it runs on NumPy for every caller: the surface-fit reference, the
robust IRLS and the plural program.  The native library's only
elimination is the hypothesis search's template solve (``solve_packed``
in ``repro/native/gauss.c``, reached through a frame pair's
:class:`~repro.native.BoundSums`), which renders it once more at the
scale of one CPU: 4 or 8 systems share one vector register per matrix
entry, each lane picks its own pivot by mask and blend, and the bits
match this reference lane for lane.
Singular (or numerically singular) systems are reported per batch
element rather than raising, because in the SMA inner loop a flat
surface patch simply means "no usable normal here" and the caller
masks the pixel out.
"""

from __future__ import annotations

# The reference elimination arithmetic lives in the backend-neutral
# kernels module; SINGULAR_TOLERANCE is re-exported for compatibility.
from ..kernels.reference import SINGULAR_TOLERANCE  # noqa: F401
from ..kernels.reference import eliminate as gaussian_eliminate  # noqa: F401
