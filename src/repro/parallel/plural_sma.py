"""The SMA inner loop written as a genuine plural (MPL-style) program.

:class:`~repro.parallel.parallel_sma.ParallelSMA` reproduces the
paper's *results and cost structure* by charging analytic operation
counts around shared numerics.  This module goes one level deeper for
the continuous model: the whole tracking loop is expressed in the
simulator's plural vocabulary -- one pixel per PE, neighborhoods
fetched with real X-net walks (:func:`repro.maspar.xnet.fetch_neighborhood`),
per-PE 6x6 systems solved in lockstep, and the winner selection done
with masked plural assignment under ``pe.where`` -- exactly how the MPL
source of the 1996 implementation was structured.

It is deliberately restricted to the configuration class the
one-pixel-per-PE mapping supports (image shape == PE grid, continuous
model) and is quadratically slower than the production matcher; its
role is validation and pedagogy: the produced fields match
:func:`repro.core.matching.track_dense` exactly on the valid interior
(tested), demonstrating that the vectorized implementation and the
machine-level program are the same algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.continuous import N_FIELDS, pointwise_fields, solve_accumulated
from ..core.matching import hypothesis_order, valid_mask
from ..core.surface import savgol_kernels
from ..maspar.cost import CostLedger
from ..maspar.machine import MachineConfig, scaled_machine
from ..maspar.pe_array import PEArray, Plural
from ..maspar.xnet import fetch_neighborhood, xnet_shift
from ..params import NeighborhoodConfig


@dataclass(frozen=True)
class PluralSMAResult:
    """Plural-program output plus its cost ledger."""

    u: np.ndarray
    v: np.ndarray
    error: np.ndarray
    valid: np.ndarray
    ledger: CostLedger


def _plural_surface_gradients(
    pe: PEArray, image: Plural, n_w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-PE quadratic-patch gradients via a real neighborhood fetch.

    The window arrives through ``(2n_w+1)^2 - 1`` X-net shifts; each PE
    then applies the shared least-squares kernels (the 6x6 solve is
    factored into the precomputed kernels, identically on every PE --
    the SIMD way to run a million identical Gaussian eliminations).
    """
    windows = fetch_neighborhood(pe, image, n_w)  # (side, side, ny, nx)
    kernels = savgol_kernels(n_w)  # (6, side, side)
    side = 2 * n_w + 1
    pe.ledger.charge_flops(2 * side * side * windows[0, 0].size)
    p = np.einsum("yx,yxij->ij", kernels[1], windows)
    q = np.einsum("yx,yxij->ij", kernels[2], windows)
    return p, q


def plural_track_continuous(
    frame_before: np.ndarray,
    frame_after: np.ndarray,
    config: NeighborhoodConfig,
    machine: MachineConfig | None = None,
    ridge: float = 1e-9,
) -> PluralSMAResult:
    """Track a frame pair with the plural-program formulation.

    Requirements: ``config.n_ss == 0`` (continuous model) and the image
    shape equal to the PE grid (use
    :func:`repro.maspar.machine.scaled_machine` to fit).
    """
    if config.is_semifluid:
        raise ValueError("the plural program implements the continuous model (n_ss = 0)")
    f0 = np.asarray(frame_before, dtype=np.float64)
    f1 = np.asarray(frame_after, dtype=np.float64)
    if f0.shape != f1.shape:
        raise ValueError("frames must share a shape")
    if machine is None:
        machine = scaled_machine(*f0.shape)
    if f0.shape != (machine.nyproc, machine.nxproc):
        raise ValueError(
            f"image {f0.shape} must equal the PE grid "
            f"({machine.nyproc}, {machine.nxproc}) for the one-pixel-per-PE program"
        )

    pe = PEArray(machine)
    ledger = pe.ledger

    with ledger.phase("Surface fit"):
        z0 = pe.from_array(f0, name="z(t)")
        z1 = pe.from_array(f1, name="z(t+1)")
        p_b, q_b = _plural_surface_gradients(pe, z0, config.n_w)
        p_a, q_a = _plural_surface_gradients(pe, z1, config.n_w)

    with ledger.phase("Compute geometric variables"):
        e_b = 1.0 + p_b * p_b
        g_b = 1.0 + q_b * q_b
        ledger.charge_flops(4 * p_b.size)
        p_after = pe.from_array(p_a, name="p'")
        q_after = pe.from_array(q_a, name="q'")

    shape = f0.shape
    best_error = pe.full(np.inf, name="best error")
    best_u = pe.zeros(name="best u")
    best_v = pe.zeros(name="best v")

    with ledger.phase("Hypothesis matching"):
        for hyp_dy, hyp_dx in hypothesis_order(config.n_zs):
            with pe.scope():
                # fetch the after-motion gradients at the hypothesis via
                # the mesh (a (dy, dx) X-net walk of both planes)
                p_hyp = xnet_shift(p_after, -hyp_dy, -hyp_dx)
                q_hyp = xnet_shift(q_after, -hyp_dy, -hyp_dx)
                fields = pointwise_fields(
                    p_b, q_b, p_hyp.data, q_hyp.data, e_b, g_b
                )  # (ny, nx, 28)
                ledger.charge_flops(fields.size * 3.0)
                # template accumulation: every field plane walks the
                # z-template window over the mesh
                acc = np.empty_like(fields)
                field_plural = pe.from_array(fields[..., 0], name="field plane")
                for k in range(N_FIELDS):
                    field_plural.data[...] = fields[..., k]
                    windows = fetch_neighborhood(pe, field_plural, config.n_zt)
                    acc[..., k] = windows.sum(axis=(0, 1))
                ledger.charge_flops(acc.size * (2 * config.n_zt + 1) ** 2)
                # per-PE 6x6 Gaussian elimination, in lockstep
                error = solve_accumulated(acc, ridge=ridge).error
                ledger.charge_gaussian_elimination(shape[0] * shape[1], order=6)
                err_plural = pe.from_array(error, name="hypothesis error")
                # masked winner update -- MPL `if (err < best)` semantics
                with pe.where(err_plural.data < best_error.data):
                    pe.assign(best_error, err_plural)
                    pe.assign(best_u, float(hyp_dx))
                    pe.assign(best_v, float(hyp_dy))

    return PluralSMAResult(
        u=best_u.data.copy(),
        v=best_v.data.copy(),
        error=best_error.data.copy(),
        valid=valid_mask(shape, config),
        ledger=ledger,
    )
