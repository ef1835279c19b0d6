"""The parallel SMA algorithm on the simulated MasPar MP-2 (Section 4).

:class:`ParallelSMA` executes the same mathematics as the sequential
reference (:mod:`repro.core`) but *as the paper's parallel program*:

* the image is folded onto the PE array with the 2-D hierarchical
  mapping (eq. 12-13) and processed "all pixels in the mem-th memory
  layer in parallel ... for each layer",
* neighborhood data moves through a Section-4.2 read-out scheme
  (raster-scan bounding boxes by default -- the scheme the paper
  adopted),
* template mappings are precomputed per Section 4.1 and segmented by
  hypothesis rows per Section 4.3, with every segment's store charged
  against the 64 KB PE memory (an infeasible configuration raises
  :class:`~repro.maspar.memory.PEMemoryError`, exactly the failure
  that forced segmentation on the real machine),
* every arithmetic/communication operation is charged to a
  :class:`~repro.maspar.cost.CostLedger` under the paper's four phase
  names, so the run produces a Table 2 / Table 4 style timing
  breakdown alongside the motion field.

The produced motion field is **identical** to
:func:`repro.core.matching.track_dense` (the paper validated its
parallel implementation the same way: "the parallel algorithm obtained
the same result as the sequential implementation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.continuous import solve_accumulated  # noqa: F401  (unused; bench/layers.py wraps this name)
from ..core.field import MotionField
from ..core.matching import (
    PreparedFrames,
    _CertificateGrid,
    _HostEvaluator,
    prepare_frames,
)
from ..core.prep import FramePreparationCache
from ..core.sma import Frame, pair_dt
from ..kernels import BITWISE_BACKENDS, resolve_backend
from ..maspar.cost import CostLedger
from ..maspar.machine import MachineConfig, scaled_machine
from ..maspar.mapping import HierarchicalMapping, mapping_for
from ..maspar.memory import PEMemoryError, PEMemoryTracker
from ..maspar.readout import DEFAULT_READOUT, RasterScanReadout, SnakeReadout
from ..obs.tracing import TRACER
from ..params import NeighborhoodConfig
from .memory_plan import max_feasible_segment_rows, plan
from .segmentation import SegmentedSearch

#: Table 2 / Table 4 phase names.
PHASE_SURFACE_FIT = "Surface fit"
PHASE_GEOMETRY = "Compute geometric variables"
PHASE_SEMIFLUID = "Semi-fluid mapping"
PHASE_MATCHING = "Hypothesis matching"

#: Flops per eq. (4)-(5) residual pair evaluation (assemble two rows,
#: weight, square, accumulate 28 field entries).
FLOPS_PER_ERROR_TERM = 80.0

#: Flops per semi-fluid discriminant comparison (difference, square,
#: accumulate, normalize share).
FLOPS_PER_COMPARISON = 3.0


def machine_for_image(
    shape: tuple[int, int], max_grid: int = 128, pe_memory_bytes: int | None = None
) -> MachineConfig:
    """A scaled MP-2 whose PE grid divides the image evenly.

    Picks the largest power-of-two grid (up to ``max_grid``, the MP-2's
    128) dividing both image dimensions.
    """
    h, w = shape
    grid = 1
    g = 2
    while g <= max_grid and h % g == 0 and w % g == 0:
        grid = g
        g *= 2
    return scaled_machine(grid, grid, pe_memory_bytes=pe_memory_bytes)


@dataclass
class ParallelResult:
    """Output of one parallel run: the field plus machine-model artifacts."""

    field: MotionField
    ledger: CostLedger
    mapping: HierarchicalMapping
    segment_rows: int
    segments_processed: int
    peak_memory_bytes: int

    def breakdown(self) -> list[tuple[str, float]]:
        """(phase, modeled seconds) rows in Table 2 order."""
        order = [PHASE_SURFACE_FIT, PHASE_GEOMETRY, PHASE_SEMIFLUID, PHASE_MATCHING]
        return [
            (name, self.ledger.phase_seconds(name))
            for name in order
            if name in self.ledger.phases
        ]

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds()


class ParallelSMA:
    """Parallel SMA on a (simulated) SIMD machine.

    Parameters
    ----------
    machine:
        Machine description; defaults to a grid fitted to the image by
        :func:`machine_for_image` at track time.
    config:
        Neighborhood parameterization.
    readout:
        Section-4.2 neighborhood read-out scheme (raster-scan default).
    segment_rows:
        Template-mapping segment size Z; ``None`` selects the largest
        feasible value (the unsegmented search when memory allows, as
        in the paper's Table 2 run).
    search:
        ``"exhaustive"`` (default) or ``"pruned"`` (certificate-bound
        pruning; bit-identical field, fewer GE charges on the ledger).
        ``"pyramid"`` is deliberately rejected here: the simulated
        machine promises products identical to the sequential
        reference, and the pyramid schedule is approximate.
    backend:
        Kernel backend -- one of the *bit-identical* backends
        (``"auto"``, ``"numpy"``, ``"native"``).  ``"device"`` is
        rejected for the same reason as the pyramid schedule: the
        simulated machine promises products identical to the
        sequential reference.
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        machine: MachineConfig | None = None,
        readout: RasterScanReadout | SnakeReadout | None = None,
        segment_rows: int | None = None,
        pixel_km: float = 1.0,
        ridge: float = 1e-9,
        search: str = "exhaustive",
        backend: str = "auto",
    ) -> None:
        if search not in ("exhaustive", "pruned"):
            raise ValueError(
                f"ParallelSMA supports search='exhaustive' or 'pruned', got {search!r} "
                "(the parallel run must stay bit-identical to the reference; "
                "the approximate pyramid schedule is track_dense-only)"
            )
        if backend not in BITWISE_BACKENDS:
            raise ValueError(
                f"ParallelSMA supports backend in {BITWISE_BACKENDS}, got {backend!r} "
                "(the parallel run must stay bit-identical to the reference; "
                "the tolerance-equivalent device backend is track_dense-only)"
            )
        self.config = config
        self.machine = machine
        self.readout = readout if readout is not None else DEFAULT_READOUT
        self.segment_rows = segment_rows
        self.pixel_km = pixel_km
        self.ridge = ridge
        self.search = search
        self.backend = backend

    # -- internal helpers ------------------------------------------------------------

    def _resolve_machine(self, shape: tuple[int, int]) -> MachineConfig:
        machine = self.machine or machine_for_image(shape)
        if shape[0] % machine.nyproc or shape[1] % machine.nxproc:
            raise ValueError(
                f"image {shape} does not fold onto the {machine.nyproc}x"
                f"{machine.nxproc} PE grid (dimensions must divide evenly)"
            )
        return machine

    def _charge_surface_fit(
        self, ledger: CostLedger, mapping: HierarchicalMapping, n_images: int
    ) -> None:
        h, w = mapping.height, mapping.width
        pixels = h * w
        stats = self.readout.stats(mapping, self.config.n_w)
        with ledger.phase(PHASE_SURFACE_FIT):
            for _ in range(n_images):
                ledger.charge_xnet(stats.mesh_bytes, shifts=stats.mesh_shifts)
                ledger.charge_memory(stats.mem_bytes)
            # windowed RHS accumulation: (2N_w+1)^2 basis products per pixel
            window = self.config.surface_window**2
            ledger.charge_flops(n_images * pixels * window * 12.0)
            ledger.charge_gaussian_elimination(n_images * pixels, order=6)

    def _charge_geometry(self, ledger: CostLedger, mapping: HierarchicalMapping) -> None:
        pixels = mapping.height * mapping.width
        with ledger.phase(PHASE_GEOMETRY):
            # normals (sqrt ~ 8 flops), E, G, discriminants for 2 surfaces
            # + 2 intensity images
            ledger.charge_flops(pixels * 4 * 30.0)
            ledger.charge_memory(pixels * 8 * 4)

    def _charge_semifluid(self, ledger: CostLedger, mapping: HierarchicalMapping) -> None:
        c = self.config
        pixels = mapping.height * mapping.width
        stats = self.readout.stats(mapping, c.n_zs + c.n_ss + c.n_st)
        with ledger.phase(PHASE_SEMIFLUID):
            ledger.charge_xnet(stats.mesh_bytes * 2, shifts=stats.mesh_shifts * 2)
            ledger.charge_memory(stats.mem_bytes * 2)
            comparisons = pixels * c.precompute_window**2 * c.semifluid_patch_terms
            ledger.charge_flops(comparisons * FLOPS_PER_COMPARISON)

    def _charge_hypothesis(
        self,
        ledger: CostLedger,
        mapping: HierarchicalMapping,
        solves: int | None = None,
    ) -> None:
        c = self.config
        pixels = mapping.height * mapping.width
        stats = self.readout.stats(mapping, c.n_zt)
        with ledger.phase(PHASE_MATCHING):
            # accumulation of the two normal-equation matrices (Section 4.2)
            ledger.charge_xnet(stats.mesh_bytes, shifts=stats.mesh_shifts)
            ledger.charge_memory(stats.mem_bytes)
            ledger.charge_flops(pixels * c.template_pixels * FLOPS_PER_ERROR_TERM)
            # One solve per pixel unless the search passes the count it
            # performed (certificate + survivor solves when pruned) --
            # the ledger is how the saving is observed.
            ledger.charge_gaussian_elimination(
                pixels if solves is None else solves, order=6
            )

    # -- the run ----------------------------------------------------------------------

    def track_pair(
        self,
        before: Frame | np.ndarray,
        after: Frame | np.ndarray,
        dt_seconds: float | None = None,
        prep_cache: FramePreparationCache | None = None,
        fit_images: int | None = None,
    ) -> ParallelResult:
        """Run the full parallel algorithm on one frame pair.

        ``prep_cache`` shares per-frame surface fits / discriminants
        across the pairs of a sequence (bit-identical results).
        ``fit_images`` overrides how many image surface fits the ledger
        charges for this pair; sequence drivers pass the *positional*
        count (full price for pair 0, only the newly arrived frame for
        later pairs) so accounting reflects the reuse yet stays
        independent of cache warmth -- a resumed run must reproduce the
        uninterrupted ledger exactly.
        """
        before = before if isinstance(before, Frame) else Frame(np.asarray(before))
        after = after if isinstance(after, Frame) else Frame(np.asarray(after))
        if before.shape != after.shape:
            raise ValueError("frame shapes differ")
        dt_seconds, dt_metadata = pair_dt(before, after, dt_seconds)

        shape = before.shape
        resolved = resolve_backend(self.backend)
        machine = self._resolve_machine(shape)
        mapping = mapping_for(machine, *shape)
        ledger = CostLedger(machine)
        memory = PEMemoryTracker(machine.pe_memory_bytes)

        # Resident data: images/surfaces + geometric variables (the
        # non-segmented part of the Section 4.3 budget).
        base_plan = plan(self.config, mapping.layers, segment_rows=1)
        memory.allocate(base_plan.image_bytes, name="images & surfaces")
        memory.allocate(base_plan.geometry_bytes, name="geometric variables")
        memory.allocate(base_plan.best_state_bytes, name="best-correspondence state")
        memory.allocate(base_plan.scratch_bytes, name="scratch")

        segment_rows = self.segment_rows
        if segment_rows is None:
            segment_rows = max_feasible_segment_rows(self.config, mapping.layers, machine)
            if segment_rows == 0:
                smallest = plan(self.config, mapping.layers, segment_rows=1)
                raise PEMemoryError(
                    "no feasible template-mapping segment size: fold the image "
                    "onto more PEs or reduce the search window",
                    requested_bytes=smallest.total_bytes,
                    capacity_bytes=machine.pe_memory_bytes,
                    in_use_bytes=0,
                )

        # Fold the image through the hierarchical mapping (and back) so
        # the data-layout machinery is genuinely in the loop.
        surface_before = np.asarray(before.surface, dtype=np.float64)
        folded = mapping.scatter(surface_before)
        restored = mapping.gather(folded)
        if not np.array_equal(restored, surface_before):  # pragma: no cover
            raise AssertionError("hierarchical mapping round-trip failed")

        # Phase 1-2: surface fits + geometric variables.
        n_images = 4 if self.config.is_semifluid or before.intensity is not None else 2
        if fit_images is not None:
            if not 0 <= fit_images <= n_images:
                raise ValueError(
                    f"fit_images must be in [0, {n_images}], got {fit_images}"
                )
            n_images = fit_images
        self._charge_surface_fit(ledger, mapping, n_images)
        self._charge_geometry(ledger, mapping)
        prepared: PreparedFrames = prepare_frames(
            surface_before,
            np.asarray(after.surface, dtype=np.float64),
            self.config,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
            cache=prep_cache,
        )

        # Phase 3: semi-fluid template-mapping precompute.
        semifluid = prepared.volume is not None and self.config.n_ss > 0
        if semifluid:
            self._charge_semifluid(ledger, mapping)
        evaluator = _HostEvaluator(prepared, self.ridge, resolved.prefer_native)

        # Phase 4: segmented hypothesis matching on the hypothesis
        # driver, one hypothesis staged, box-summed and solved at a time,
        # each charged to the ledger with the eliminations it performed.
        grid = None
        if self.search == "pruned":
            grid = _CertificateGrid.build(shape, self.config.n_zt)
        search = SegmentedSearch(
            self.config, memory=memory, layers=mapping.layers, grid=grid,
            charge=lambda solves: self._charge_hypothesis(ledger, mapping, solves),
        )
        with TRACER.span(
            "hypothesis_search", ledger=ledger, segment_rows=segment_rows
        ):
            state = search.run(evaluator, segment_rows)

        metadata = {
            "model": "semi-fluid" if self.config.is_semifluid else "continuous",
            "config": self.config.name,
            "machine": f"{machine.nyproc}x{machine.nxproc}",
            "segment_rows": segment_rows,
            "search": self.search,
            "backend": self.backend,
            **dt_metadata,
        }
        field = MotionField(
            u=state.u,
            v=state.v,
            valid=state.valid,
            error=state.error,
            params=state.params,
            dt_seconds=dt_seconds,
            pixel_km=self.pixel_km,
            metadata=metadata,
        )
        return ParallelResult(
            field=field,
            ledger=ledger,
            mapping=mapping,
            segment_rows=segment_rows,
            segments_processed=search.segments_processed,
            peak_memory_bytes=memory.peak_bytes,
        )
