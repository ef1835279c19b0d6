"""Graceful degradation: the per-pair fallback ladder.

When the planned parallel SMA cannot produce a pair's motion field,
the runner walks down a ladder instead of killing the sequence:

1. **rung 0** -- parallel SMA at the planned segment size,
2. **rung 1** -- re-plan: the largest template-mapping segment that
   *does* fit the (possibly squeezed) PE memory -- segmentation is
   provably result-identical, so this rung loses nothing but time,
3. **rung 2** -- the prior-art parallel Horn-Schunck baseline (no
   template-mapping store at all, so no segment memory to run out of),
4. **rung 3** -- temporal interpolation: persist the last good field
   (clouds advect smoothly at 1.5-minute cadence; the paper's dense
   Luis sequence is exactly the regime where persistence is sane).

Each rung reports the ledger of what it cost, so degraded pairs still
land in the timing rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..core.sma import Frame
from ..kernels import KERNEL_BACKENDS
from ..maspar.cost import CostLedger
from ..maspar.machine import MachineConfig, scaled_machine
from ..maspar.memory import PEMemoryError
from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..params import NeighborhoodConfig
from ..parallel.memory_plan import max_feasible_segment_rows
from ..parallel.parallel_hs import parallel_horn_schunck
from ..parallel.parallel_sma import ParallelSMA

_LOG = get_logger("degrade")


def _record_step(steps: list, rung: int, kind: str, detail: str) -> None:
    """Append a ladder step, counting and logging the rung failure."""
    steps.append(LadderStep(rung=rung, kind=kind, detail=detail))
    METRICS.inc("degrade.ladder_step")
    log_event(_LOG, logging.WARNING, "degrade.step", rung=rung, kind=kind, detail=detail)


@dataclass
class RungResult:
    """One pair's field plus the rung that produced it."""

    u: np.ndarray
    v: np.ndarray
    error: np.ndarray
    rung: int
    segment_rows: int | None
    ledger: CostLedger | None
    seconds: float
    detail: str = ""


@dataclass
class LadderStep:
    """A failure on one rung, recorded on the way down."""

    rung: int
    kind: str
    detail: str


class DegradationLadder:
    """Walks a frame pair down the fallback rungs until one succeeds.

    Parameters
    ----------
    config:
        Neighborhood configuration of the run.
    hs_iterations / hs_alpha / hs_tolerance:
        Horn-Schunck fallback parameters (rung 2).
    search:
        Hypothesis schedule for the SMA rungs: ``"exhaustive"`` or
        ``"pruned"`` (bit-identical results, fewer GE charges).
    backend:
        Kernel backend for the SMA rungs: ``"auto"``, ``"numpy"`` or
        ``"native"`` (:data:`repro.kernels.KERNEL_BACKENDS`).
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        hs_iterations: int = 60,
        hs_alpha: float = 1.0,
        hs_tolerance: float = 1e-4,
        search: str = "exhaustive",
        backend: str = "auto",
    ) -> None:
        if search not in ("exhaustive", "pruned"):
            raise ValueError(
                f"DegradationLadder supports search='exhaustive' or 'pruned', "
                f"got {search!r} (streamed products must stay bit-identical)"
            )
        if backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"DegradationLadder supports backend in {KERNEL_BACKENDS}, got {backend!r}"
            )
        self.config = config
        self.hs_iterations = hs_iterations
        self.hs_alpha = hs_alpha
        self.hs_tolerance = hs_tolerance
        self.search = search
        self.backend = backend

    # -- rungs ----------------------------------------------------------------------

    def _sma(
        self,
        before: np.ndarray,
        after: np.ndarray,
        machine: MachineConfig,
        segment_rows: int,
        dt_seconds: float,
        rung: int,
        intensity_before: np.ndarray | None = None,
        intensity_after: np.ndarray | None = None,
        prep_cache=None,
        fit_images: int | None = None,
    ) -> RungResult:
        driver = ParallelSMA(
            self.config,
            machine=machine,
            segment_rows=segment_rows,
            search=self.search,
            backend=self.backend,
        )
        result = driver.track_pair(
            Frame(before, intensity=intensity_before),
            Frame(after, intensity=intensity_after),
            dt_seconds=dt_seconds,
            prep_cache=prep_cache,
            fit_images=fit_images,
        )
        return RungResult(
            u=result.field.u,
            v=result.field.v,
            error=result.field.error,
            rung=rung,
            segment_rows=result.segment_rows,
            ledger=result.ledger,
            seconds=result.total_seconds,
            detail=f"Z={result.segment_rows}, {result.segments_processed} segment(s)",
        )

    def _horn_schunck(
        self, before: np.ndarray, after: np.ndarray, shape: tuple[int, int]
    ) -> RungResult:
        result = parallel_horn_schunck(
            before,
            after,
            machine=scaled_machine(*shape),
            alpha=self.hs_alpha,
            iterations=self.hs_iterations,
            tolerance=self.hs_tolerance,
        )
        return RungResult(
            u=result.u,
            v=result.v,
            error=np.zeros(shape, dtype=np.float64),
            rung=2,
            segment_rows=None,
            ledger=result.ledger,
            seconds=result.ledger.total_seconds(),
            detail=f"{result.iterations} Jacobi iteration(s)",
        )

    @staticmethod
    def interpolate(
        shape: tuple[int, int],
        last_u: np.ndarray | None,
        last_v: np.ndarray | None,
        last_error: np.ndarray | None,
    ) -> RungResult:
        """Rung 3: persist the last good field (zero motion if none)."""
        if last_u is None or last_v is None:
            u = np.zeros(shape, dtype=np.float64)
            v = np.zeros(shape, dtype=np.float64)
            error = np.zeros(shape, dtype=np.float64)
            detail = "no prior field; zero-motion fill"
        else:
            u = np.array(last_u, dtype=np.float64, copy=True)
            v = np.array(last_v, dtype=np.float64, copy=True)
            error = (
                np.zeros(shape, dtype=np.float64)
                if last_error is None
                else np.array(last_error, dtype=np.float64, copy=True)
            )
            detail = "temporal interpolation of the previous field"
        return RungResult(
            u=u, v=v, error=error, rung=3, segment_rows=None, ledger=None,
            seconds=0.0, detail=detail,
        )

    # -- the walk -------------------------------------------------------------------

    def track_pair(
        self,
        before: np.ndarray,
        after: np.ndarray,
        machine: MachineConfig,
        planned_rows: int,
        dt_seconds: float = 1.0,
        intensity_before: np.ndarray | None = None,
        intensity_after: np.ndarray | None = None,
        last_u: np.ndarray | None = None,
        last_v: np.ndarray | None = None,
        last_error: np.ndarray | None = None,
        prep_cache=None,
        fit_images: int | None = None,
    ) -> tuple[RungResult, list[LadderStep]]:
        """Produce a field for one pair, degrading as needed.

        Returns the first rung that succeeded plus the steps that
        failed on the way down.  ``machine`` may be memory-squeezed or
        grid-reduced by the caller's fault handling; ``planned_rows``
        is the segment size the healthy plan called for.
        ``prep_cache``/``fit_images`` forward to
        :meth:`ParallelSMA.track_pair` (per-frame preparation reuse and
        positional surface-fit accounting).
        """
        shape = np.asarray(before).shape
        steps: list[LadderStep] = []

        try:
            return (
                self._sma(
                    before, after, machine, planned_rows, dt_seconds, rung=0,
                    intensity_before=intensity_before, intensity_after=intensity_after,
                    prep_cache=prep_cache, fit_images=fit_images,
                ),
                steps,
            )
        except PEMemoryError as exc:
            over = exc.shortfall_bytes
            detail = f"planned Z={planned_rows} infeasible"
            if over is not None:
                detail += f" ({over} B/PE over)"
            _record_step(steps, rung=0, kind="pe-memory", detail=detail)

        layers = machine.layers_for_image(*shape)
        feasible = max_feasible_segment_rows(self.config, layers, machine)
        if feasible >= 1:
            try:
                return (
                    self._sma(
                        before, after, machine, feasible, dt_seconds, rung=1,
                        intensity_before=intensity_before, intensity_after=intensity_after,
                        prep_cache=prep_cache, fit_images=fit_images,
                    ),
                    steps,
                )
            except PEMemoryError as exc:
                _record_step(
                    steps, rung=1, kind="pe-memory", detail=f"re-planned Z={feasible}: {exc}"
                )
        else:
            _record_step(
                steps, rung=1, kind="pe-memory", detail="no feasible segment size at all"
            )

        try:
            return self._horn_schunck(before, after, shape), steps
        except (ValueError, MemoryError) as exc:
            _record_step(steps, rung=2, kind="horn-schunck", detail=str(exc))

        return self.interpolate(shape, last_u, last_v, last_error), steps
