"""The paper's primary contribution: the Semi-fluid Motion Analysis algorithm.

Sequential reference implementation of Section 2: quadratic
surface-patch fitting and differential geometry (:mod:`.surface`), the
continuous motion model ``F_cont`` (:mod:`.continuous`), the semi-fluid
template mapping ``F_semi`` (:mod:`.semifluid`), hypothesis matching
(:mod:`.matching`), the :class:`~repro.core.sma.SMAnalyzer` pipeline and
the :class:`~repro.core.field.MotionField` result container.
"""

from .continuous import (
    N_PARAMS,
    PARAM_NAMES,
    MotionSolution,
    estimate_from_samples,
    pointwise_fields,
    predicted_normal,
    residual_rows,
    solve_accumulated,
)
from .field import MotionField
from .linalg import gaussian_eliminate
from .matching import (
    DenseMatchResult,
    PreparedFrames,
    hypothesis_order,
    prepare_frames,
    track_dense,
    track_pixel,
    valid_mask,
)
from .prep import (
    CacheStats,
    FramePreparation,
    FramePreparationCache,
    frame_fingerprint,
    prepare_frame,
)
from .semifluid import (
    ScoreVolume,
    box_sum,
    compute_score_volume,
    discriminant_field,
    semifluid_displacements,
    semifluid_map_pixel,
    shift2d,
)
from .sma import Frame, SMAnalyzer
from .surface import (
    SurfaceGeometry,
    fit_patches,
    fit_patches_reference,
    fit_surface,
    geometry_from_coefficients,
)

__all__ = [
    "N_PARAMS",
    "PARAM_NAMES",
    "MotionSolution",
    "estimate_from_samples",
    "pointwise_fields",
    "predicted_normal",
    "residual_rows",
    "solve_accumulated",
    "MotionField",
    "gaussian_eliminate",
    "DenseMatchResult",
    "PreparedFrames",
    "hypothesis_order",
    "prepare_frames",
    "track_dense",
    "track_pixel",
    "valid_mask",
    "CacheStats",
    "FramePreparation",
    "FramePreparationCache",
    "frame_fingerprint",
    "prepare_frame",
    "ScoreVolume",
    "box_sum",
    "compute_score_volume",
    "discriminant_field",
    "semifluid_displacements",
    "semifluid_map_pixel",
    "shift2d",
    "Frame",
    "SMAnalyzer",
    "SurfaceGeometry",
    "fit_patches",
    "fit_patches_reference",
    "fit_surface",
    "geometry_from_coefficients",
]
