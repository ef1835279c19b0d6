"""The paper's parallelization of the SMA algorithm (Section 4).

Layer-by-layer scheduling (:mod:`.layers`), template-mapping
segmentation under the 64 KB PE-memory constraint (:mod:`.segmentation`,
:mod:`.memory_plan`), the full parallel driver producing Table 2/4
style timing breakdowns (:mod:`.parallel_sma`), and the prior-art
parallel Horn-Schunck baseline (:mod:`.parallel_hs`).
"""

from .layers import (
    assemble_from_layers,
    iter_layers,
    layer_pixel_coordinates,
    layer_plane,
    set_layer_plane,
)
from .memory_plan import (
    FLOAT_BYTES,
    FLOATS_PER_MAPPING,
    SCRATCH_BYTES,
    MemoryPlan,
    max_feasible_segment_rows,
    plan,
    segments_for,
    template_mapping_bytes,
)
from .parallel_asa import (
    PHASE_CORRELATION,
    PHASE_PYRAMID,
    PHASE_WARP,
    ParallelASA,
    ParallelASAResult,
)
from .parallel_hs import ParallelHSResult, parallel_horn_schunck
from .plural_sma import PluralSMAResult, plural_track_continuous
from .parallel_sma import (
    PHASE_GEOMETRY,
    PHASE_MATCHING,
    PHASE_SEMIFLUID,
    PHASE_SURFACE_FIT,
    ParallelResult,
    ParallelSMA,
    machine_for_image,
)
from .segmentation import SegmentedSearch, iter_segments

__all__ = [
    "assemble_from_layers",
    "iter_layers",
    "layer_pixel_coordinates",
    "layer_plane",
    "set_layer_plane",
    "FLOAT_BYTES",
    "FLOATS_PER_MAPPING",
    "SCRATCH_BYTES",
    "MemoryPlan",
    "max_feasible_segment_rows",
    "plan",
    "segments_for",
    "template_mapping_bytes",
    "PHASE_CORRELATION",
    "PHASE_PYRAMID",
    "PHASE_WARP",
    "ParallelASA",
    "ParallelASAResult",
    "ParallelHSResult",
    "parallel_horn_schunck",
    "PHASE_GEOMETRY",
    "PHASE_MATCHING",
    "PHASE_SEMIFLUID",
    "PHASE_SURFACE_FIT",
    "ParallelResult",
    "ParallelSMA",
    "PluralSMAResult",
    "plural_track_continuous",
    "machine_for_image",
    "SegmentedSearch",
    "iter_segments",
]
