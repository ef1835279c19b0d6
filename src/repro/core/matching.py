"""Hypothesis search and dense motion-correspondence estimation (Section 2.2).

For every tracked pixel the SMA algorithm evaluates every hypothesis in
the ``(2N_zs+1)^2`` z-search neighborhood: Step 1 selects the template
mapping (continuous ``F_cont`` or semi-fluid ``F_semi``), Step 2 solves
the 6x6 system for the motion parameters and evaluates the template
error eq. (3); the estimated correspondence is the error-minimizing
hypothesis (eq. 7).

Two implementations are provided, mirroring the paper's own methodology
("a sequential (un-optimized) version ... was used to form a baseline
for comparing the correctness of the parallel algorithm results"):

* :func:`track_pixel` -- the direct, per-pixel reference: explicit
  template sample lists, one hypothesis at a time, on NumPy alone.

* :func:`track_dense` -- the optimized dense path: because the template
  accumulation of eq. (3) is a box sum, the normal-equation fields for
  *all* pixels are accumulated with uniform filters, and all pixels'
  6x6 systems are solved by batched Gaussian elimination.  The
  semi-fluid mapping uses the Section 4.1 precompute
  (:func:`repro.core.semifluid.compute_score_volume`).

Every :func:`track_dense` schedule -- and the row-segmented schedule of
:class:`repro.parallel.segmentation.SegmentedSearch` that
:class:`~repro.parallel.parallel_sma.ParallelSMA` runs -- goes through
one hypothesis driver, :func:`_search`, which repeats three steps per
chunk of hypotheses:

1. an *evaluator* builds the chunk's hypothesis-varying pointwise
   normal-equation fields (one
   :func:`~repro.core.continuous.stack_varying_fields` call), computes
   certificate bounds when asked, and solves the template systems (one
   box-sum sweep, ONE batched Gaussian elimination) -- on host kernels
   (native C field build, box sum, solve and merge through the frame
   pair's binding when the library is loaded, bit-identical to
   NumPy/SciPy).  The 10 packed fields no hypothesis
   changes (:data:`~repro.kernels.reference.INVARIANT_FIELDS`) are
   built and summed once per frame pair, and the solve reads them next
   to each hypothesis's 18 varying sums;
2. a *schedule* picks the chunks and, per chunk, the pixels to solve;
3. one flat-index *merge* keeps the per-pixel minimum of (error,
   rank in :func:`hypothesis_order`), so tie-breaks are deterministic
   however the search is chunked or ordered: among equal error minima
   the smaller displacement wins (Chebyshev magnitude, then raster
   order).

``search`` selects the schedule:

* ``"exhaustive"`` (default) -- every pixel solves every hypothesis,
  ``batch_bytes`` of stacked fields per chunk (a 1-byte cap gives the
  one-hypothesis-at-a-time loop, bit-identically).
* ``"pruned"`` -- exact certificate-grid pruning, bit-identical to
  exhaustive.  The template error of eq. (3) is a sum of non-negative
  per-sample terms, so the minimized error over a *sub-window* of the
  template bounds the full minimized error from below (the bound
  survives the ridge term and the ``max(.., 0)`` clamp).  These cheap
  certificate systems are solved on a sparse grid, and the full 6x6
  solve is skipped wherever the bound exceeds the pixel's current best
  by more than an fp-safety slack (:class:`_CertificateGrid`).
* ``"pyramid"`` -- opt-in coarse-to-fine guidance (continuous model
  only): the raw surfaces are decimated through
  :mod:`repro.stereo.pyramid` and searched exhaustively (one more
  driver run); the upsampled coarse displacement restricts each
  pixel's fine-level search to a ``(2*refine+1)^2`` window.
  Approximate by design; endpoint error vs. exhaustive is bounded by
  tests on the synthetic vortex dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..kernels import resolve_backend
from ..kernels.reference import (
    VARYING_FIELDS,
    SplitSums,
    invariant_planes,
    merge_best,
    strided_window_sums,
)
from ..native import BoundSums, PairKernels, native_available
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..params import NeighborhoodConfig
from .continuous import (
    estimate_from_samples,
    solve_accumulated,
)
from .continuous import stack_box_sum as _kernel_box_sum_stack
from .continuous import stack_varying_fields as pointwise_fields
from .prep import FramePreparationCache, prepare_frame
from .semifluid import (
    ScoreVolume,
    compute_score_volume,
    semifluid_displacements,
    semifluid_map_pixel,
    shift2d,
)
from .semifluid import box_sum  # noqa: F401  (unused; bench/layers.py wraps this name)
from .surface import SurfaceGeometry

#: Soft cap on the stacked field bytes of one exhaustive chunk.  Small
#: on purpose: the per-hypothesis working set (28 packed fields, their
#: box sums, the 6x6 systems) must stay cache-resident -- monolithic
#: stacks profile several times SLOWER than one-hypothesis chunks.
DEFAULT_BATCH_BYTES = 2**20

#: Hypothesis-schedule modes accepted by :func:`track_dense`.
SEARCH_MODES = ("exhaustive", "pruned", "pyramid")

#: Certificate-grid spacing of the pruned schedule: with half-width
#: ``m = n_zt - 1`` a stride of 3 keeps every pixel within Chebyshev
#: distance 1 of a grid center, so its certificate window nests inside
#: the pixel's own template and the bound stays exact.
CERT_STRIDE = 3

#: FP-safety slack for the prune test: a hypothesis is skipped only when
#: its certificate bound exceeds the current best by more than
#: ``rel * |c_cert| + abs``.  The sub-window solve and the full solve
#: share no intermediate rounding, so the analytic bound must be given
#: a few ulps of room before it may veto a solve that could win or tie.
CERT_SLACK_REL = 3e-6
CERT_SLACK_ABS = 1e-12

#: Ledger phase name for GE charges of :func:`track_dense` (matches
#: :data:`repro.parallel.parallel_sma.PHASE_MATCHING`).
PHASE_MATCHING = "Hypothesis matching"


@dataclass(frozen=True)
class DenseMatchResult:
    """Dense per-pixel correspondence estimates.

    * ``u``, ``v`` -- x- and y-displacement (pixels, t_m -> t_{m+1}),
    * ``params`` -- winning motion parameters, shape (H, W, 6),
    * ``error`` -- winning template error, shape (H, W),
    * ``valid`` -- interior mask (False in the border margin where
      windows would leave the image),
    * ``hypotheses_evaluated`` -- hypotheses the schedule touched (the
      full ``(2N_zs+1)^2`` count for exhaustive/pruned; the fine-level
      offsets visited for pyramid),
    * ``ge_solves`` -- 6x6 Gaussian eliminations actually performed
      (certificate + survivor solves for the pruned schedule),
    * ``hypotheses_pruned`` -- pixel-hypothesis pairs whose full solve
      the pruned schedule skipped.
    """

    u: np.ndarray
    v: np.ndarray
    params: np.ndarray
    error: np.ndarray
    valid: np.ndarray
    hypotheses_evaluated: int
    ge_solves: int = 0
    hypotheses_pruned: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape

    def displacement_magnitude(self) -> np.ndarray:
        """Euclidean displacement magnitude per pixel."""
        return np.hypot(self.u, self.v)


def hypothesis_order(n_zs: int) -> list[tuple[int, int]]:
    """Hypothesis displacements sorted by (Chebyshev magnitude, raster).

    Evaluating hypotheses in this order with a strict-less update makes
    tie-breaking favor the smallest motion, deterministically, in both
    the dense and reference paths.
    """
    offsets = [(dy, dx) for dy in range(-n_zs, n_zs + 1) for dx in range(-n_zs, n_zs + 1)]
    return sorted(offsets, key=lambda o: (max(abs(o[0]), abs(o[1])), o[0], o[1]))


def valid_mask(shape: tuple[int, int], config: NeighborhoodConfig) -> np.ndarray:
    """Interior mask: True where every window stays inside the image."""
    return interior_mask(shape, config.margin())


def interior_mask(shape: tuple[int, int], margin: int) -> np.ndarray:
    """True at least ``margin`` pixels from every border (nowhere when a
    side is not longer than ``2 margin``)."""
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * margin and shape[1] > 2 * margin:
        mask[margin : shape[0] - margin, margin : shape[1] - margin] = True
    return mask


@dataclass(frozen=True)
class PreparedFrames:
    """Everything the matcher needs, computed once per frame pair.

    ``geo_before``/``geo_after`` come from the *surface* (z) images;
    ``volume`` is the semi-fluid score volume from the *intensity*
    discriminants (None for the continuous model).  ``z_before``/
    ``z_after`` keep the raw surfaces so the pyramid search can build
    its coarse levels; they are None for hand-built instances.
    """

    geo_before: SurfaceGeometry
    geo_after: SurfaceGeometry
    volume: ScoreVolume | None
    config: NeighborhoodConfig
    z_before: np.ndarray | None = None
    z_after: np.ndarray | None = None


def prepare_frames(
    z_before: np.ndarray,
    z_after: np.ndarray,
    config: NeighborhoodConfig,
    intensity_before: np.ndarray | None = None,
    intensity_after: np.ndarray | None = None,
    cache: FramePreparationCache | None = None,
) -> PreparedFrames:
    """Fit surfaces and (for the semi-fluid model) precompute scores.

    In the monocular case the intensity image *is* the digital surface
    (Section 2) -- pass it as ``z_before``/``z_after`` and omit the
    intensity pair.  ``cache`` reuses the per-frame surface fit and
    discriminant field across the pairs of a sequence, bit-identically;
    the score volume couples both frames and is always computed here.
    """
    z_before = np.asarray(z_before, dtype=np.float64)
    z_after = np.asarray(z_after, dtype=np.float64)
    for label, z in (("before", z_before), ("after", z_after)):
        if z.ndim != 2 or z.size == 0:
            raise ValueError(f"{label} frame must be a non-empty 2-D image, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError(
                f"{label} frame contains non-finite values (NaN or Inf); garbage "
                "pixels would silently poison the windowed 6x6 normal equations"
            )
    if z_before.shape != z_after.shape:
        raise ValueError(f"frame shapes differ: {z_before.shape} vs {z_after.shape}")
    i_b = i_a = None
    if config.is_semifluid:
        i_b = z_before if intensity_before is None else np.asarray(intensity_before, float)
        i_a = z_after if intensity_after is None else np.asarray(intensity_after, float)
        if i_b.shape != z_before.shape or i_a.shape != z_after.shape:
            raise ValueError("intensity shapes must match surface shapes")
        if not (np.isfinite(i_b).all() and np.isfinite(i_a).all()):
            raise ValueError("intensity contains non-finite values (NaN or Inf)")
    lookup = cache.get if cache is not None else prepare_frame
    # Pass None when the intensity IS the surface (monocular) so the
    # content fingerprint hashes each frame's pixels exactly once.
    with TRACER.span("prepare_frames", semifluid=config.is_semifluid, cached=cache is not None):
        prep_b = lookup(z_before, None if intensity_before is None else i_b, config)
        prep_a = lookup(z_after, None if intensity_after is None else i_a, config)
        volume = None
        if config.is_semifluid:
            with TRACER.span("score_volume"):
                volume = compute_score_volume(
                    prep_b.discriminant, prep_a.discriminant, config
                )
    return PreparedFrames(
        geo_before=prep_b.geometry,
        geo_after=prep_a.geometry,
        volume=volume,
        config=config,
        z_before=z_before,
        z_after=z_after,
    )


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack``, without the copy for a one-hypothesis chunk."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _HostEvaluator:
    """The driver's evaluation stage on host kernels, bound to one frame pair.

    ``pointwise_fields`` -> ``_kernel_box_sum_stack`` ->
    ``solve_accumulated`` (the names ``bench/layers.py`` times; the
    dispatchers of :mod:`repro.core.continuous`).  Per hypothesis they
    build and sum only the 18 varying fields; the 10 invariant ones are
    built and box-summed here, once per frame pair, and every solve
    reads them as a second base (outer stride 0).  Certificates and
    template sums accumulate the same pointwise fields, which is what
    makes the bound exact.

    When the native kernels run, ``__init__`` binds the pair once
    (:class:`~repro.native.PairKernels`, as ``kernels``) and every
    native call of the search goes through that binding: the
    contiguous before and after planes, the invariant sums, output
    buffers kept for the whole pair and grown to the schedule's largest
    chunk (the varying stack, its box sums, the solve's outputs) and the
    solve's field table with its invariant half.  A hypothesis's kernel
    calls then pass only its offsets or semi-fluid deltas and its
    survivors: the field build reads the after planes in place -- at the
    hypothesis offset (continuous model) or at each pixel's semi-fluid
    displacement -- and the driver's merge runs in C (:func:`_merger`).
    ``backend="numpy"`` and an unloaded library leave ``kernels`` None
    and take the reference path: shifted or gathered copies, SciPy box
    sums, fresh outputs and the NumPy solve and merge.

    ``template`` is the template's ``(half_y, half_x)``; the square
    ``(n_zt, n_zt)`` of the configuration by default (the rectangular
    templates of :mod:`repro.extensions.adaptive` pass their own).
    """

    def __init__(
        self,
        prepared: PreparedFrames,
        ridge: float,
        prefer_native: bool = True,
        template: tuple[int, int] | None = None,
    ):
        self.prepared = prepared
        self.ridge = ridge
        n_zt = prepared.config.n_zt
        self.template = (n_zt, n_zt) if template is None else template
        self._last_acc = None
        self.kernels = None
        if prefer_native and native_available():
            geo_b, geo_a = prepared.geo_before, prepared.geo_after
            self.kernels = PairKernels(
                geo_b.p, geo_b.q, geo_b.e, geo_b.g, geo_a.p, geo_a.q, *self.template
            )
        self._invariant_acc = _kernel_box_sum_stack(
            self._invariant_planes(), *self.template, out=self.kernels
        )
        self._certificate = None  # (grid, its invariant window sums)

    def _invariant_planes(self) -> np.ndarray:
        """The pair's 10 hypothesis-invariant planes ``(10, H, W)``."""
        geo_b = self.prepared.geo_before
        return invariant_planes(geo_b.p, geo_b.q, geo_b.e, geo_b.g)

    def stage(self, chunk: list[tuple[int, int]]):
        """``(varying fields, delta_y, delta_x)`` of a hypothesis chunk.

        The fields are a contiguous ``(n, 18, H, W)`` stack, plane ``j``
        holding packed field ``VARYING_FIELDS[j]`` -- with bound
        kernels, a view of their stack, overwritten by the next chunk.
        The semi-fluid deltas, each pixel's chosen displacement, are
        contiguous ``(n, H, W)`` int64, built once per chunk for the
        field build and the merge to read; None for the continuous
        model.
        """
        prepared = self.prepared
        geo_a = prepared.geo_after
        delta_y = delta_x = None
        if prepared.volume is not None and prepared.config.n_ss > 0:
            deltas = np.empty((2, len(chunk)) + geo_a.shape, dtype=np.int64)
            for k, (dy, dx) in enumerate(chunk):
                deltas[:, k] = semifluid_displacements(
                    prepared.volume, dy, dx, prepared.config.n_ss
                )
            delta_y, delta_x = deltas
        if self.kernels is not None:
            pw = pointwise_fields(self.kernels, chunk, delta_y=delta_y, delta_x=delta_x)
            return pw, delta_y, delta_x
        if delta_y is None:
            p_a = _stack([shift2d(geo_a.p, dy, dx) for dy, dx in chunk])
            q_a = _stack([shift2d(geo_a.q, dy, dx) for dy, dx in chunk])
        else:
            h, w = geo_a.shape
            rows = (np.arange(h)[:, None] + delta_y) % h
            cols = (np.arange(w) + delta_x) % w
            p_a, q_a = geo_a.p[rows, cols], geo_a.q[rows, cols]
        geo_b = prepared.geo_before
        pw = pointwise_fields(geo_b.p, geo_b.q, geo_b.e, geo_b.g, p_a, q_a)
        return pw, delta_y, delta_x

    def certificate_bounds(self, pw, grid: "_CertificateGrid"):
        """Grid-shaped ``(lb, |c|)`` of one staged hypothesis.  ``lb`` is
        zero where singular: E(0) = c is NOT a lower bound on the minimum.

        The window sums run over the hypothesis's 18 varying planes; the
        invariant planes' sums are taken once per grid, on its first
        call, and read as the solve's second base (bound, with its
        outputs, when the native kernels run).
        """
        if self._certificate is None or self._certificate[0] is not grid:
            invariant = grid.window_sums(self._invariant_planes())
            if self.kernels is not None:
                varying = np.empty((1, len(VARYING_FIELDS)) + invariant.shape[1:])
                invariant = BoundSums(varying, invariant)
            self._certificate = (grid, invariant)
        acc = grid.window_sums(pw[0])
        invariant = self._certificate[1]
        fields = SplitSums(acc, invariant) if self.kernels is None else invariant.assign(acc)
        solution = solve_accumulated(fields, ridge=self.ridge)
        # c, the last packed field, is the last varying one.
        grid_shape = acc.shape[1:]
        return (
            np.where(solution.singular, 0.0, solution.error).reshape(grid_shape),
            np.abs(acc[-1]),
        )

    def solve(self, pw, pixels: np.ndarray | None = None):
        """Template ``(error, params)``: ``(n, H, W[, 6])``, or ``(s[, 6])`` at ``pixels``.

        The box sum covers the full image on purpose: its running-sum
        rounding depends on the distance from the array origin, so
        cropping to the selected pixels would change bits.  The solve
        reads the selected pixels where they lie, in the varying sums
        and the pair's invariant sums.  With bound kernels the sums and
        the results are views of the pair's buffers, overwritten by the
        next solve.  On the reference path the last box sum is kept
        alive until the next one: freeing it lets the allocator hand its
        pages back to the OS and fault them in again per hypothesis
        (2-3x the minor page faults, measured at 96 px).
        """
        if self.kernels is None:
            acc = self._last_acc = _kernel_box_sum_stack(pw, *self.template)
            fields = SplitSums(acc, self._invariant_acc)
        else:
            self._last_acc = _kernel_box_sum_stack(pw, *self.template, out=self.kernels)
            fields = self.kernels.sums
        solution = solve_accumulated(fields, ridge=self.ridge, pixels=pixels)
        return solution.error, solution.params


class _CertificateGrid:
    """Sub-template certificate geometry for the pruned schedule.

    One certificate window of half-width ``m = n_zt - 1`` per
    ``CERT_STRIDE x CERT_STRIDE`` block, with all windows fully inside
    the image.  Every pixel maps to its nearest grid center; where the
    Chebyshev distance is at most ``n_zt - m``, the certificate window
    is a subset of that pixel's own template window and its minimized
    error is a sound lower bound.  Those covered pixels form one
    rectangle (consecutive centers sit ``CERT_STRIDE`` apart), and each
    one's grid cell is mapped once, here; pixels outside it are never
    pruned (their bound would be zero, which never exceeds a
    non-negative best).
    """

    def __init__(self, shape: tuple[int, int], n_zt: int, m: int) -> None:
        h, w = shape
        self.m = m
        self.gy = np.arange(m, h - m, CERT_STRIDE)
        self.gx = np.arange(m, w - m, CERT_STRIDE)
        tol = n_zt - m

        def covered(n: int, count: int) -> tuple[slice, np.ndarray]:
            """The covered run of ``n`` lines and the grid index of each."""
            nearest = np.clip(
                np.round((np.arange(n) - m) / CERT_STRIDE).astype(np.intp), 0, count - 1
            )
            lines = np.flatnonzero(np.abs(np.arange(n) - (m + CERT_STRIDE * nearest)) <= tol)
            if lines.size == 0 or lines[-1] - lines[0] + 1 != lines.size:
                raise ValueError("certificate windows must cover one run of image lines")
            run = slice(lines[0], lines[-1] + 1)
            return run, nearest[run]

        self.rows, cell_y = covered(h, self.gy.size)
        self.cols, cell_x = covered(w, self.gx.size)
        #: Flat grid index of every covered pixel's certificate.
        self.cell = cell_y[:, None] * self.gx.size + cell_x[None, :]
        self._bound = np.empty(self.cell.shape)
        self._pruned = np.zeros(shape, dtype=bool)
        self._keep = np.empty(shape, dtype=bool)

    @classmethod
    def build(cls, shape: tuple[int, int], n_zt: int) -> "_CertificateGrid | None":
        """A usable grid, or None when certificates cannot discriminate.

        ``m = n_zt - 1`` needs at least two template rows to leave a
        certificate window that overdetermines the six parameters; a
        ``m < 2`` window (<= 18 residuals) prunes next to nothing, so
        tiny templates simply fall back to the exhaustive schedule.
        """
        m = n_zt - 1
        if m < 2 or min(shape) <= 2 * m:
            return None
        return cls(shape, n_zt, m)

    def window_sums(self, planes: np.ndarray) -> np.ndarray:
        """Certificate-window sums ``(k, gy, gx)`` of ``(k, H, W)`` planes."""
        tmp = strided_window_sums(planes, 2, self.gx.size, CERT_STRIDE, self.m)
        return strided_window_sums(tmp, 1, self.gy.size, CERT_STRIDE, self.m)

    @property
    def systems(self) -> int:
        """Certificate solves per hypothesis (one per grid point)."""
        return self.gy.size * self.gx.size

    def survivors(self, evaluator: _HostEvaluator, pw, best_error: np.ndarray):
        """Flat indices of the pixels a staged hypothesis may still win.

        A pixel is pruned only when ``lb - slack > best_error`` strictly:
        the hypothesis could then neither win the strict-less merge nor
        tie, so pruning never changes a bit.  ``lb - slack`` is formed
        per grid point and read at each covered pixel's cell.  None
        (solve all, skip the certificates) while ``best_error`` is all
        inf.  The returned indices are the caller's; the grid reuses its
        own masks.
        """
        if not np.isfinite(best_error).any():
            return None
        lb_grid, c_grid = evaluator.certificate_bounds(pw, self)
        bound = lb_grid - (CERT_SLACK_REL * c_grid + CERT_SLACK_ABS)
        np.take(bound, self.cell, out=self._bound)
        np.greater(self._bound, best_error[self.rows, self.cols],
                   out=self._pruned[self.rows, self.cols])
        return np.flatnonzero(np.logical_not(self._pruned, out=self._keep))


class _Exhaustive:
    """Schedule: every pixel solves every hypothesis, ``size`` per chunk.

    With a certificate ``grid`` it is the pruned schedule: one
    hypothesis per chunk, solved at its certificate survivors.
    """

    def __init__(
        self, order: list[tuple[int, int]], size: int = 1, grid: _CertificateGrid | None = None
    ) -> None:
        self.order = order
        self.size = size if grid is None else 1
        self.grid = grid
        self.certificate_solves = 0
        self.pruned = 0

    def chunks(self):
        """``(rank, hypotheses)`` per chunk, in hypothesis order; ``rank``
        is the first hypothesis's index in :func:`hypothesis_order`."""
        for start in range(0, len(self.order), self.size):
            yield start, self.order[start : start + self.size]

    def pixels(self, evaluator, pw, best_error) -> np.ndarray | None:
        """Flat pixels to solve for a staged chunk (None: all of them)."""
        if self.grid is None:
            return None
        survivors = self.grid.survivors(evaluator, pw, best_error)
        if survivors is not None:
            self.certificate_solves += self.grid.systems
            self.pruned += best_error.size - survivors.size
        return survivors

    def record(self, result: DenseMatchResult) -> None:
        METRICS.inc("hypotheses.evaluated", len(self.order))
        if self.grid is None:
            return
        survivor_solves = result.ge_solves - self.certificate_solves
        METRICS.inc("search.hypotheses.pruned", self.pruned)
        METRICS.inc("search.ge_solves.performed", result.ge_solves)
        METRICS.inc("search.ge_solves.saved", result.error.size * len(self.order) - survivor_solves)
        METRICS.inc("search.certificate_solves", self.certificate_solves)


def _exhaustive(
    prepared: PreparedFrames, batch_bytes: int, grid: _CertificateGrid | None = None
) -> _Exhaustive:
    """Exhaustive schedule whose chunks stack at most ``batch_bytes`` of
    varying fields; pruned, one hypothesis per chunk, when given a ``grid``."""
    h, w = prepared.geo_before.shape
    size = max(1, int(batch_bytes) // max(h * w * len(VARYING_FIELDS) * 8, 1))
    return _Exhaustive(hypothesis_order(prepared.config.n_zs), size, grid)


class _Window(_Exhaustive):
    """Schedule of the pyramid's fine level: each pixel solves the
    hypotheses within ``refine`` of its coarse center."""

    def __init__(self, order, center_y: np.ndarray, center_x: np.ndarray, refine: int):
        super().__init__(order)
        self.center_y = center_y
        self.center_x = center_x
        self.refine = refine
        self.mask = None

    def chunks(self):
        for start, (hyp_dy, hyp_dx) in enumerate(self.order):
            self.mask = (np.abs(hyp_dy - self.center_y) <= self.refine) & (
                np.abs(hyp_dx - self.center_x) <= self.refine
            )
            if self.mask.any():
                yield start, [(hyp_dy, hyp_dx)]

    def pixels(self, evaluator, pw, best_error):
        return np.flatnonzero(self.mask.ravel())

    def record(self, result):
        METRICS.inc("pyramid.fine_offsets.visited", result.hypotheses_evaluated)
        METRICS.inc("pyramid.fine_solves", result.ge_solves)


def _search(evaluator: _HostEvaluator, schedule: _Exhaustive) -> DenseMatchResult:
    """The hypothesis driver: evaluate, select and merge, chunk by chunk.

    The merge keeps the per-pixel minimum of (error, rank), so a schedule
    may visit hypotheses out of order (the segment schedule does) and
    still pick the winner of a merge in hypothesis order.
    """
    prepared = evaluator.prepared
    shape = prepared.geo_before.shape
    best_error = np.full(shape, np.inf)
    flat_error = best_error.reshape(-1)
    # rank -1: an unsolved pixel keeps its +inf even against an +inf error.
    best = (
        flat_error, np.full(flat_error.size, -1, dtype=np.intp),
        np.zeros((flat_error.size, 6), dtype=np.float64),
        np.zeros_like(flat_error), np.zeros_like(flat_error),
    )
    merge = _merger(evaluator, best)

    evaluated = solves = 0
    for start, chunk in schedule.chunks():
        METRICS.inc("batched_engine.chunks")
        with TRACER.span("hypothesis_chunk", start=start, size=len(chunk)):
            solves += _run_chunk(evaluator, schedule, start, chunk, best_error, merge)
        evaluated += len(chunk)

    _, _, flat_params, flat_u, flat_v = best
    result = DenseMatchResult(
        u=flat_u.reshape(shape), v=flat_v.reshape(shape),
        params=flat_params.reshape(shape + (6,)), error=best_error,
        valid=valid_mask(shape, prepared.config), hypotheses_evaluated=evaluated,
        ge_solves=solves + schedule.certificate_solves, hypotheses_pruned=schedule.pruned,
    )
    schedule.record(result)
    return result


def _merger(evaluator, best):
    """The (error, rank) merge of ``evaluator``'s solves into ``best``.

    ``best`` is the search's flat ``(error, rank, params, u, v)``.
    Returns ``merge(rank, chunk, error, params, pixels, delta_y,
    delta_x)`` for one solved chunk: with the evaluator's bound
    ``kernels``, their C merge, which reads the solve's outputs in place
    (``error`` and ``params`` are views of them); otherwise -- the
    reference path, or any evaluator that only stages and solves --
    :func:`~repro.kernels.reference.merge_best`.
    """
    kernels = getattr(evaluator, "kernels", None)
    if kernels is None:
        def merge(rank, chunk, error, params, pixels, delta_y, delta_x):
            if pixels is not None:
                error, params = error[None], params[None]
            merge_best(error, params, rank, chunk, best, pixels, delta_y, delta_x)

        return merge
    kernels.bind_best(best)

    def merge(rank, chunk, error, params, pixels, delta_y, delta_x):
        kernels.merge(rank, chunk, pixels, delta_y, delta_x)

    return merge


def _run_chunk(evaluator, schedule, start: int, chunk, best_error, merge) -> int:
    """Stage, select, solve and merge one chunk; returns the solves run.

    ``merge`` comes from :func:`_merger`.  With bound kernels every step
    writes the pair's own buffers, so a chunk allocates next to nothing.
    On the reference path this is a function of its own so that the
    chunk's staged fields, solution and merge temporaries are all freed
    before the next chunk is staged: kept alive, they make the allocator
    fault in fresh pages per chunk (up to 5x the minor page faults,
    measured on 64 and 96 px pairs).
    """
    pw, delta_y, delta_x = evaluator.stage(chunk)
    pixels = schedule.pixels(evaluator, pw, best_error)
    if pixels is not None and pixels.size == 0:
        return 0
    error, params = evaluator.solve(pw, pixels)
    merge(start, chunk, error, params, pixels, delta_y, delta_x)
    return error.size


def track_dense(
    prepared: PreparedFrames,
    ridge: float = 1e-9,
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    search: str = "exhaustive",
    ledger=None,
    pyramid_levels: int = 1,
    pyramid_refine: int = 1,
    backend: str = "auto",
) -> DenseMatchResult:
    """Estimate the dense motion field: all pixels, all hypotheses.

    The paper's "track all pixels ... in parallel" as NumPy whole-array
    operations (:class:`repro.parallel.parallel_sma.ParallelSMA` runs
    the same math through the SIMD simulator).  ``batch_bytes`` caps
    the stacked fields of one exhaustive chunk (speed, never results).
    ``search`` selects the schedule (module docstring), with
    ``pyramid_levels`` decimations and a ``pyramid_refine`` half-width
    fine window for ``"pyramid"``.  ``ledger`` receives the GE solves
    actually performed, under ``"Hypothesis matching"``.  ``backend``
    is one of :data:`repro.kernels.KERNEL_BACKENDS` (``"auto"``,
    ``"numpy"``, ``"native"``), all bit-identical.
    """
    if search not in SEARCH_MODES:
        raise ValueError(
            f"unknown search mode {search!r} (choose from {', '.join(SEARCH_MODES)})"
        )
    resolved = resolve_backend(backend)
    with TRACER.span("hypothesis_search", search=search, backend=resolved.resolved):
        if search == "pyramid":
            result = _pyramid_search(
                prepared, ridge, batch_bytes, pyramid_levels, pyramid_refine,
                resolved.prefer_native,
            )
        else:
            evaluator = _HostEvaluator(prepared, ridge, resolved.prefer_native)
            grid = None
            if search == "pruned":
                # None for a template too small for certificates:
                # exhaustive IS the pruned result.
                grid = _CertificateGrid.build(prepared.geo_before.shape, prepared.config.n_zt)
            result = _search(evaluator, _exhaustive(prepared, batch_bytes, grid))
    if ledger is not None:
        with ledger.phase(PHASE_MATCHING):
            ledger.charge_gaussian_elimination(result.ge_solves, order=6)
    return result


def _pyramid_search(
    prepared: PreparedFrames,
    ridge: float,
    batch_bytes: int,
    levels: int,
    refine: int,
    prefer_native: bool = True,
) -> DenseMatchResult:
    """Coarse-to-fine guided search (approximate, continuous model only)."""
    from ..stereo.pyramid import downsample, upsample_flow

    config = prepared.config
    if prepared.volume is not None and config.n_ss > 0:
        raise ValueError(
            "search='pyramid' supports the continuous model only: the "
            "semi-fluid score volume is resolution-specific and cannot "
            "be decimated (search='exhaustive' and 'pruned' are the exact schedules)"
        )
    if prepared.z_before is None or prepared.z_after is None:
        raise ValueError(
            "search='pyramid' needs PreparedFrames built by prepare_frames "
            "(the raw surfaces are required to build the coarse levels)"
        )
    if levels < 1 or refine < 0:
        raise ValueError(
            f"need pyramid_levels >= 1 and pyramid_refine >= 0, got {levels}, {refine}"
        )
    shape = prepared.geo_before.shape

    # Decimate while the coarse level can still track anything: each
    # level halves the surfaces and (conservatively) the search radius.
    z_b, z_a = prepared.z_before, prepared.z_after
    coarse_zs = config.n_zs
    used_levels = 0
    for _ in range(levels):
        if min(z_b.shape) < 4:
            break
        next_zs = max(1, -(-coarse_zs // 2))
        next_b = downsample(z_b)
        if min(next_b.shape) <= 2 * config.replace(n_zs=next_zs).margin() + 1:
            break
        z_b, z_a = next_b, downsample(z_a)
        coarse_zs = next_zs
        used_levels += 1
    evaluator = _HostEvaluator(prepared, ridge, prefer_native)
    if used_levels == 0:  # too small for a coarse level: exhaustive it is
        return _search(evaluator, _exhaustive(prepared, batch_bytes))

    with TRACER.span(
        "pyramid_level", level=used_levels, height=z_b.shape[0], width=z_b.shape[1],
        n_zs=coarse_zs,
    ):
        coarse_prep = prepare_frames(z_b, z_a, config.replace(n_zs=coarse_zs))
        coarse = _search(
            _HostEvaluator(coarse_prep, ridge, prefer_native),
            _exhaustive(coarse_prep, batch_bytes),
        )
    u_up, v_up = upsample_flow(coarse.u, coarse.v, shape)
    center_x = np.clip(np.rint(u_up), -config.n_zs, config.n_zs).astype(np.int64)
    center_y = np.clip(np.rint(v_up), -config.n_zs, config.n_zs).astype(np.int64)
    with TRACER.span(
        "pyramid_level", level=0, height=shape[0], width=shape[1], refine=refine
    ):
        fine = _search(
            evaluator, _Window(hypothesis_order(config.n_zs), center_y, center_x, refine)
        )
    METRICS.inc("pyramid.levels", used_levels)
    return replace(fine, ge_solves=coarse.ge_solves + fine.ge_solves)


def track_pixel(
    prepared: PreparedFrames,
    x: int,
    y: int,
    d_before: np.ndarray | None = None,
    d_after: np.ndarray | None = None,
    ridge: float = 1e-9,
) -> tuple[float, float, np.ndarray, float]:
    """Reference per-pixel tracker (the paper's sequential baseline).

    Returns ``(u, v, params, error)`` for pixel ``(x, y)``.  For the
    semi-fluid model pass the intensity discriminant fields so the
    per-pixel :func:`semifluid_map_pixel` can run without the dense
    precompute.  Wraps toroidally like the dense path; meaningful only
    for interior pixels.  Every step runs on NumPy
    (:func:`~repro.core.continuous.estimate_from_samples`), whatever the
    backend, so the reference never shares a kernel with the dense
    search it checks.
    """
    config = prepared.config
    geo_b, geo_a = prepared.geo_before, prepared.geo_after
    h, w = geo_b.shape
    n_zt = config.n_zt
    dyy, dxx = np.meshgrid(
        np.arange(-n_zt, n_zt + 1), np.arange(-n_zt, n_zt + 1), indexing="ij"
    )
    ty = (y + dyy) % h
    tx = (x + dxx) % w

    p_b = geo_b.p[ty, tx].ravel()
    q_b = geo_b.q[ty, tx].ravel()
    e_b = geo_b.e[ty, tx].ravel()
    g_b = geo_b.g[ty, tx].ravel()

    semifluid = config.is_semifluid
    if semifluid and (d_before is None or d_after is None):
        raise ValueError("semi-fluid reference tracking needs discriminant fields")

    best = None
    for hyp_dy, hyp_dx in hypothesis_order(config.n_zs):
        center_delta = (hyp_dy, hyp_dx)
        if semifluid:
            p_a = np.empty_like(p_b)
            q_a = np.empty_like(q_b)
            flat_ty = ty.ravel()
            flat_tx = tx.ravel()
            for idx in range(flat_ty.size):
                dy_star, dx_star = semifluid_map_pixel(
                    d_before,
                    d_after,
                    int(flat_tx[idx]),
                    int(flat_ty[idx]),
                    hyp_dy,
                    hyp_dx,
                    config,
                )
                if flat_ty[idx] == y % h and flat_tx[idx] == x % w:
                    center_delta = (dy_star, dx_star)
                p_a[idx] = geo_a.p[(flat_ty[idx] + dy_star) % h, (flat_tx[idx] + dx_star) % w]
                q_a[idx] = geo_a.q[(flat_ty[idx] + dy_star) % h, (flat_tx[idx] + dx_star) % w]
        else:
            ay = (ty + hyp_dy) % h
            ax = (tx + hyp_dx) % w
            p_a = geo_a.p[ay, ax].ravel()
            q_a = geo_a.q[ay, ax].ravel()
        solution = estimate_from_samples(p_b, q_b, p_a, q_a, e_b, g_b, ridge=ridge)
        err = float(solution.error)
        if best is None or err < best[3]:
            # Report the tracked pixel's own (semi-fluid) correspondence.
            best = (float(center_delta[1]), float(center_delta[0]), solution.params, err)
    assert best is not None
    return best
