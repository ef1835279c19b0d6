"""PE memory requirement of the parallel SMA algorithm (Section 4.3).

"One of the bottlenecks while designing the parallel implementation was
the memory constraint of 64 KB per PE."  The dominant consumer is the
pre-computed template-mapping store of Section 4.1: for every resident
pixel, every hypothesis in the search area needs its template mapping
kept.  The paper's key sizing example: "even storing just two floating
point numbers for each precomputed template mapping for a relatively
small search area of 23 x 23 and with 16 pixel elements stored per PE
would still require 67.7 KB per PE which exceeds the available" memory
-- i.e. ``23^2 * 2 floats * 4 B * 16 layers = 67,712 B = 67.7 KB``
(decimal), which :func:`template_mapping_bytes` reproduces exactly.

The fix is segmentation "by hypothesis or search area": segments of
``Z`` rows of the hypothesis neighborhood, each row holding
``(2N_zs + 1)`` template mappings, computed, consumed and discarded in
turn.  :func:`sma_bytes_per_pe` gives the full per-PE budget for a
segment size ``Z`` and :func:`max_feasible_segment_rows` the largest
``Z`` that fits -- the quantity that decides between the unsegmented
fast path (Table 2 was run with ``Z = 2N_zs + 1``) and chunked
execution.

The published formula is OCR-corrupted in our source; the budget below
is rebuilt from the stated inventory (images and surfaces, geometric
variables, the two-float template-mapping store, per-segment error
terms, running best-correspondence state, and a fixed scratch area of
288 bytes, the constant that survives in the paper's formula).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..maspar.machine import MachineConfig
from ..params import NeighborhoodConfig

#: Bytes per floating-point value (the MP-2 implementation used singles).
FLOAT_BYTES = 4

#: Floats stored per precomputed template mapping: the paper notes the
#: minimization of eq. (3) depends only on (n'_i + n'_j) and n'_k.
FLOATS_PER_MAPPING = 2

#: Fixed per-PE scratch (registers spill, accumulation matrices, loop
#: state) -- the additive constant of the paper's formula.
SCRATCH_BYTES = 288


def template_mapping_bytes(
    search_half_width: int, layers: int, rows: int | None = None
) -> int:
    """Bytes/PE of the precomputed template-mapping store.

    ``rows`` is the segment size ``Z`` in hypothesis rows; ``None``
    means unsegmented (all ``2N_zs + 1`` rows resident).  Each row
    holds ``(2N_zs + 1)`` mappings of two floats for each of the
    ``layers`` resident pixels.
    """
    if search_half_width < 0 or layers < 1:
        raise ValueError("invalid geometry")
    side = 2 * search_half_width + 1
    z = side if rows is None else rows
    if not 1 <= z <= side:
        raise ValueError(f"segment rows must be in [1, {side}], got {z}")
    return z * side * FLOATS_PER_MAPPING * FLOAT_BYTES * layers


@dataclass(frozen=True)
class MemoryPlan:
    """Complete per-PE budget of one parallel SMA run."""

    config: NeighborhoodConfig
    layers: int
    segment_rows: int
    image_bytes: int
    geometry_bytes: int
    template_mapping_store_bytes: int
    error_bytes: int
    best_state_bytes: int
    scratch_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.image_bytes
            + self.geometry_bytes
            + self.template_mapping_store_bytes
            + self.error_bytes
            + self.best_state_bytes
            + self.scratch_bytes
        )

    def fits(self, capacity_bytes: int) -> bool:
        return self.total_bytes <= capacity_bytes

    def rows(self) -> list[tuple[str, int]]:
        """Budget as (component, bytes/PE) rows for reporting."""
        return [
            ("images & surfaces", self.image_bytes),
            ("geometric variables", self.geometry_bytes),
            ("template-mapping store", self.template_mapping_store_bytes),
            ("segment error terms", self.error_bytes),
            ("best-correspondence state", self.best_state_bytes),
            ("scratch", self.scratch_bytes),
        ]


def plan(
    config: NeighborhoodConfig, layers: int, segment_rows: int | None = None
) -> MemoryPlan:
    """Build the per-PE memory budget for a segment size.

    Inventory (all per resident pixel, i.e. times ``layers``):

    * images & surfaces: I(t_m), I(t_m+1), z(t_m), z(t_m+1) -- 4 floats,
    * geometric variables: before-motion p, q, E, G; after-motion
      (n'_i + n'_j), n'_k; intensity discriminants D, D' -- 8 floats,
    * template-mapping store: Z rows x (2N_zs+1) mappings x 2 floats,
    * segment error terms: Z x (2N_zs+1) running eq.-(3) errors,
    * best state: best error, displacement (2), six parameters -- 9
      floats,
    * fixed scratch: 288 B.
    """
    side = config.search_window
    z = side if segment_rows is None else segment_rows
    if not 1 <= z <= side:
        raise ValueError(f"segment rows must be in [1, {side}], got {z}")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    return MemoryPlan(
        config=config,
        layers=layers,
        segment_rows=z,
        image_bytes=4 * FLOAT_BYTES * layers,
        geometry_bytes=8 * FLOAT_BYTES * layers,
        template_mapping_store_bytes=template_mapping_bytes(config.n_zs, layers, z),
        error_bytes=z * side * FLOAT_BYTES * layers,
        best_state_bytes=9 * FLOAT_BYTES * layers,
        scratch_bytes=SCRATCH_BYTES,
    )


def max_feasible_segment_rows(
    config: NeighborhoodConfig, layers: int, machine: MachineConfig
) -> int:
    """Largest segment size Z whose budget fits the PE memory.

    Returns 0 when even ``Z = 1`` does not fit (the image must then be
    folded onto more PEs or streamed from the disk array).
    """
    for z in range(config.search_window, 0, -1):
        if plan(config, layers, z).fits(machine.pe_memory_bytes):
            return z
    return 0


def planned_segment_rows(
    config: NeighborhoodConfig, machine: MachineConfig, shape: tuple[int, int]
) -> int:
    """Segment size Z a pair of ``shape`` frames is planned with on ``machine``.

    The largest feasible Z, floored at 1: when even ``Z = 1`` does not
    fit, the degradation ladder takes over from the planned size.
    """
    layers = machine.layers_for_image(*shape)
    return max(1, max_feasible_segment_rows(config, layers, machine))


def segments_for(config: NeighborhoodConfig, segment_rows: int) -> int:
    """Number of segments needed to cover the whole search area."""
    side = config.search_window
    if not 1 <= segment_rows <= side:
        raise ValueError(f"segment rows must be in [1, {side}]")
    return -(-side // segment_rows)
