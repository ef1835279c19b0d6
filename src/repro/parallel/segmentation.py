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
Z-row chunk; :class:`SegmentedSearch` drives the full minimization
over a chunked search area while charging each segment's
template-mapping store to a :class:`~repro.maspar.memory.PEMemoryTracker`
-- so an infeasible segment size fails with the same
:class:`~repro.maspar.memory.PEMemoryError` the real machine's 64 KB
would force, and the result is provably independent of the chunking
(tested against the unsegmented search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..core.matching import hypothesis_order
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


@dataclass
class SegmentResult:
    """Best-so-far state across processed segments."""

    error: np.ndarray
    u: np.ndarray
    v: np.ndarray
    params: np.ndarray
    segments_processed: int = 0
    mappings_computed: int = 0


class SegmentedSearch:
    """Chunked minimization of eq. (7) over the hypothesis area.

    Parameters
    ----------
    config:
        Neighborhood configuration (defines the search area).
    evaluate:
        Callback ``evaluate(dy, dx) -> (error, params, u, v)`` returning,
        for one hypothesis displacement, dense per-pixel arrays: the
        template error, the motion parameters ``(H, W, 6)`` and the
        per-pixel correspondence displacement fields (which differ from
        the constant hypothesis under the semi-fluid mapping; a scalar
        stands for a constant field).
    memory:
        Optional PE-memory ledger; each segment's template-mapping
        store is allocated for the duration of the segment and freed
        afterwards -- exactly the lifetime the paper engineered.
    layers:
        Resident pixels per PE (sizes the segment allocation).
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        evaluate: Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        memory: PEMemoryTracker | None = None,
        layers: int = 1,
    ) -> None:
        if layers < 1:
            raise ValueError("layers must be >= 1")
        self.config = config
        self.evaluate = evaluate
        self.memory = memory
        self.layers = layers

    def _segment_bytes(self, n_rows: int) -> int:
        side = self.config.search_window
        per_mapping = FLOATS_PER_MAPPING * FLOAT_BYTES
        # mappings + the per-hypothesis error terms of the segment
        return n_rows * side * (per_mapping + FLOAT_BYTES) * self.layers

    def run(self, shape: tuple[int, int], segment_rows: int) -> SegmentResult:
        """Process all segments; returns the global best state.

        Segments run in the paper's row order, not in
        :func:`~repro.core.matching.hypothesis_order`, so exact ties are
        broken by each hypothesis's index in that order -- its
        (Chebyshev magnitude, dy, dx) rank.  The state is then the
        lexicographic minimum of (error, rank) per pixel however the
        search is segmented: the winner of ``track_dense``'s strict-less
        merge in hypothesis order.
        """
        rank_of = {hyp: k for k, hyp in enumerate(hypothesis_order(self.config.n_zs))}
        state = SegmentResult(
            error=np.full(shape, np.inf),
            u=np.zeros(shape, dtype=np.float64),
            v=np.zeros(shape, dtype=np.float64),
            params=np.zeros(shape + (6,), dtype=np.float64),
        )
        best_error, best_u, best_v = (a.reshape(-1) for a in (state.error, state.u, state.v))
        best_params = state.params.reshape(-1, 6)
        best_rank = np.full(best_error.size, len(rank_of))
        for chunk in iter_segments(self.config, segment_rows):
            rows_in_chunk = len({dy for dy, _ in chunk})
            handle = None
            if self.memory is not None:
                handle = self.memory.allocate(
                    self._segment_bytes(rows_in_chunk), name="template-mapping-segment"
                )
            try:
                for dy, dx in chunk:
                    error, params, u, v = self.evaluate(dy, dx)
                    error = np.reshape(error, -1)
                    rank = rank_of[(dy, dx)]
                    winners = np.flatnonzero(
                        (error < best_error) | ((error == best_error) & (rank < best_rank))
                    )
                    best_error[winners] = error[winners]
                    best_params[winners] = np.reshape(params, (-1, 6))[winners]
                    best_u[winners] = u if np.ndim(u) == 0 else np.reshape(u, -1)[winners]
                    best_v[winners] = v if np.ndim(v) == 0 else np.reshape(v, -1)[winners]
                    best_rank[winners] = rank
                    state.mappings_computed += 1
            finally:
                if handle is not None:
                    self.memory.free(handle)
            state.segments_processed += 1
        return state
