"""Rectangular and adaptive template windows (Section 6 future work).

"Although the current implementation uses square template and search
areas, rectangular areas can also be used and may lead to improved
motion correspondence results" (Section 2.2), and the conclusions list
"adaptive hierarchical non-square template and search windows" as
future work.  This module implements both:

* :func:`box_sum_rect` / :func:`track_dense_rect` -- rectangular
  ``(2N_y+1) x (2N_x+1)`` z-templates (continuous model), useful when
  the motion or the cloud structure is anisotropic (e.g. shear bands).
  The search is :func:`repro.core.matching.track_dense`'s exhaustive
  one -- the same hypothesis driver, evaluator and kernels, native
  when loaded -- with the template's two half-widths handed to its box
  sums.
* :func:`texture_energy` / :func:`select_window_sizes` /
  :func:`track_dense_adaptive` -- per-pixel template-size selection:
  each pixel uses the *smallest* template whose local texture energy
  clears a threshold, so strongly textured pixels get tight (fast,
  deformation-tolerant) windows and bland pixels get the large windows
  they need for a well-posed 6x6 system.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.matching import (
    DEFAULT_BATCH_BYTES,
    DenseMatchResult,
    PreparedFrames,
    _exhaustive,
    _HostEvaluator,
    _search,
    interior_mask,
)
from ..kernels.reference import box_sum_rect


def track_dense_rect(
    prepared: PreparedFrames, half_y: int, half_x: int, ridge: float = 1e-9
) -> DenseMatchResult:
    """Dense continuous-model tracking with a rectangular z-template.

    The hypothesis search area stays square (``config.n_zs``); only the
    template accumulation is rectangular, ``(2 half_y + 1) x (2 half_x +
    1)``, and the valid mask keeps the margin of its longer side.
    Bit-identical to the square search when ``half_y == half_x ==
    n_zt``.  Raises for the semi-fluid model (the rectangular extension
    applies to the template sum) and for negative half-widths.
    """
    config = prepared.config
    if config.is_semifluid:
        raise ValueError("rectangular templates are implemented for the continuous model")
    evaluator = _HostEvaluator(prepared, ridge, template=(half_y, half_x))
    result = _search(evaluator, _exhaustive(prepared, DEFAULT_BATCH_BYTES))
    return replace(result, valid=_template_mask(result.shape, config, max(half_y, half_x)))


def _template_mask(shape, config, half: int) -> np.ndarray:
    """``valid_mask`` with the template half-width ``half`` in place of
    ``n_zt`` -- which may be below ``n_st``, so no config is built."""
    return interior_mask(shape, config.margin() - config.n_zt + half)


def texture_energy(image: np.ndarray, half_width: int) -> np.ndarray:
    """Local gradient energy: sum of squared central differences.

    The adaptivity criterion: a window is informative when it contains
    enough gradient structure for the normal-consistency system to be
    well conditioned.
    """
    image = np.asarray(image, dtype=np.float64)
    gy, gx = np.gradient(image)
    return box_sum_rect(gx * gx + gy * gy, half_width, half_width)


def select_window_sizes(
    image: np.ndarray, candidate_half_widths: tuple[int, ...], energy_threshold: float
) -> np.ndarray:
    """Per-pixel template half-width: smallest candidate clearing the threshold.

    Candidates must be sorted ascending; pixels too bland for every
    candidate get the largest one.
    """
    if not candidate_half_widths:
        raise ValueError("need at least one candidate window size")
    if list(candidate_half_widths) != sorted(candidate_half_widths):
        raise ValueError("candidates must be sorted ascending")
    choice = np.full(np.asarray(image).shape, candidate_half_widths[-1], dtype=np.int64)
    decided = np.zeros(choice.shape, dtype=bool)
    for hw in candidate_half_widths:
        energy = texture_energy(image, hw)
        take = (~decided) & (energy >= energy_threshold)
        choice[take] = hw
        decided |= take
    return choice


def track_dense_adaptive(
    prepared: PreparedFrames,
    candidate_half_widths: tuple[int, ...] = (2, 4, 6),
    energy_threshold: float = 1.0,
    ridge: float = 1e-9,
) -> tuple[DenseMatchResult, np.ndarray]:
    """Adaptive-template continuous tracking.

    Runs the dense matcher once per candidate template size and, per
    pixel, keeps the result of the window that
    :func:`select_window_sizes` assigned to it.  Returns the combined
    result -- its hypothesis and GE counts summed over the candidate
    searches -- and the per-pixel window-size map.
    """
    config = prepared.config
    if config.is_semifluid:
        raise ValueError("adaptive templates are implemented for the continuous model")
    shape = prepared.geo_before.shape
    # surface height drives the texture criterion
    sizes = select_window_sizes(prepared.geo_before.p, candidate_half_widths, energy_threshold)

    u = np.zeros(shape)
    v = np.zeros(shape)
    params = np.zeros(shape + (6,))
    error = np.full(shape, np.inf)
    evaluated = solves = 0
    for hw in candidate_half_widths:
        sub = track_dense_rect(prepared, hw, hw, ridge=ridge)
        take = sizes == hw
        u[take] = sub.u[take]
        v[take] = sub.v[take]
        params[take] = sub.params[take]
        error[take] = sub.error[take]
        evaluated += sub.hypotheses_evaluated
        solves += sub.ge_solves
    result = DenseMatchResult(
        u=u,
        v=v,
        params=params,
        error=error,
        valid=_template_mask(shape, config, max(candidate_half_widths)),
        hypotheses_evaluated=evaluated,
        ge_solves=solves,
    )
    return result, sizes
