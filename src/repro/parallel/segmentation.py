"""Template-mapping segmentation by hypothesis rows (Sections 4.1 / 4.3).

"The template mapping data cannot be segmented [by pixel layer], since
each segment would correspond to multiple layers within a PE of data
pixels being tracked ...  Instead the key observation is that the
template mapping data can be segmented by hypothesis or search area.
The data chunks or segments are in multiples of rows of the search or
hypothesis neighborhood with each row containing (2N_zs + 1) template
mappings.  Each segment can be independently computed and processed
...  The segment can then be discarded and next chunk computed ...
Once all the segments are processed, the equivalent minimization of
(7) is complete."

:func:`iter_segments` yields the hypothesis displacements of each
Z-row chunk; :class:`SegmentedSearch` is the segment *schedule* of the
hypothesis driver :func:`repro.core.matching._search`: it hands the
driver one hypothesis at a time in row-segment order while charging
each segment's template-mapping store to a
:class:`~repro.maspar.memory.PEMemoryTracker` -- so an infeasible
segment size fails with the same
:class:`~repro.maspar.memory.PEMemoryError` the real machine's 64 KB
would force.  The driver's (error, rank) merge makes the result
independent of the chunking (tested against the unsegmented search).
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..core.matching import (
    DenseMatchResult,
    _CertificateGrid,
    _Exhaustive,
    _HostEvaluator,
    _search,
    hypothesis_order,
)
from ..maspar.memory import PEMemoryTracker
from ..params import NeighborhoodConfig
from .memory_plan import FLOAT_BYTES, FLOATS_PER_MAPPING


def iter_segments(
    config: NeighborhoodConfig, segment_rows: int
) -> Iterator[list[tuple[int, int]]]:
    """Yield hypothesis displacements (dy, dx) in Z-row chunks.

    Rows run over dy = -N_zs .. N_zs; each chunk covers up to
    ``segment_rows`` consecutive rows, every row containing the full
    ``(2N_zs + 1)`` dx sweep.
    """
    side = config.search_window
    if not 1 <= segment_rows <= side:
        raise ValueError(f"segment rows must be in [1, {side}]")
    n = config.n_zs
    row = -n
    while row <= n:
        chunk: list[tuple[int, int]] = []
        for dy in range(row, min(row + segment_rows, n + 1)):
            for dx in range(-n, n + 1):
                chunk.append((dy, dx))
        yield chunk
        row += segment_rows


class SegmentedSearch(_Exhaustive):
    """Schedule of eq. (7)'s minimization over a row-segmented search area.

    Parameters
    ----------
    config:
        Neighborhood configuration (defines the search area).
    memory:
        Optional PE-memory ledger; each segment's template-mapping
        store is allocated for the duration of the segment and freed
        afterwards -- exactly the lifetime the paper engineered.
    layers:
        Resident pixels per PE (sizes the segment allocation).
    grid:
        Optional certificate grid: the pruned schedule, solving each
        hypothesis at its certificate survivors only.
    charge:
        Optional callback ``charge(solves)``, called once per hypothesis
        with the Gaussian eliminations it costs (certificate plus
        survivor solves when pruned).
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        memory: PEMemoryTracker | None = None,
        layers: int = 1,
        grid: _CertificateGrid | None = None,
        charge: Callable[[int], None] | None = None,
    ) -> None:
        if layers < 1:
            raise ValueError("layers must be >= 1")
        super().__init__(hypothesis_order(config.n_zs), grid=grid)
        self.config = config
        self.memory = memory
        self.layers = layers
        self.charge = charge
        self.rank = {hyp: k for k, hyp in enumerate(self.order)}
        self.segment_rows = config.search_window
        self.segments_processed = 0

    def _segment_bytes(self, n_rows: int) -> int:
        side = self.config.search_window
        per_mapping = FLOATS_PER_MAPPING * FLOAT_BYTES
        # mappings + the per-hypothesis error terms of the segment
        return n_rows * side * (per_mapping + FLOAT_BYTES) * self.layers

    def chunks(self):
        """One hypothesis per chunk, segment by segment in the paper's
        row order, each segment's store allocated while it runs."""
        for segment in iter_segments(self.config, self.segment_rows):
            handle = None
            if self.memory is not None:
                rows_in_segment = len({dy for dy, _ in segment})
                handle = self.memory.allocate(
                    self._segment_bytes(rows_in_segment), name="template-mapping-segment"
                )
            try:
                for hyp in segment:
                    yield self.rank[hyp], [hyp]
            finally:
                if handle is not None:
                    self.memory.free(handle)
            self.segments_processed += 1

    def pixels(self, evaluator, pw, best_error):
        survivors = super().pixels(evaluator, pw, best_error)
        if self.charge is not None:
            self.charge(
                best_error.size if survivors is None
                else self.grid.systems + survivors.size
            )
        return survivors

    def run(self, evaluator: _HostEvaluator, segment_rows: int) -> DenseMatchResult:
        """Minimize over ``segment_rows``-row segments on the hypothesis driver."""
        self.segment_rows = segment_rows
        self.segments_processed = 0
        return _search(evaluator, self)
