"""The public SMA pipeline: Semi-fluid Motion Analysis end to end.

:class:`SMAnalyzer` is the library's front door.  It reproduces the
paper's data flow:

* **stereo mode** -- each input timestep carries a stereo-derived
  surface map ``z(t)`` plus the (left, rectified) intensity image
  ``I(t)``; normals come from the z-surface and the semi-fluid mapping
  from the intensity discriminant (Hurricane Frederic, Section 5.1).
* **monocular mode** -- "semi-fluid motion tracking can also be
  applied to a monocular or single satellite time sequence by treating
  the intensity data as a digital surface" (GOES-9 / Hurricane Luis,
  Section 5.2): the intensity image serves as both the surface and the
  discriminant source.

The model is selected by the neighborhood configuration: ``n_ss > 0``
activates the semi-fluid template mapping ``F_semi``, ``n_ss = 0`` is
the continuous model ``F_cont`` (the paper used the former for
Frederic, the latter for the temporally dense GOES-9/Luis sequences).

Example
-------
>>> from repro import SMAnalyzer, SMALL_CONFIG
>>> analyzer = SMAnalyzer(SMALL_CONFIG)
>>> field = analyzer.track_pair(z0, z1)          # monocular, doctest: +SKIP
>>> fields = analyzer.track_sequence(frames)      # doctest: +SKIP
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..kernels import KERNEL_BACKENDS
from ..params import NeighborhoodConfig
from .field import MotionField
from .matching import SEARCH_MODES, PreparedFrames, prepare_frames, track_dense, valid_mask
from .prep import FramePreparationCache


@dataclass(frozen=True)
class Frame:
    """One timestep of input.

    ``surface`` is the tracked digital surface (cloud-top height map in
    stereo mode; the intensity image itself in monocular mode).
    ``intensity`` optionally carries a separate intensity image for the
    semi-fluid discriminant (stereo mode); when None, ``surface`` is
    used.  ``time_seconds`` is the acquisition time.

    Inputs are canonicalized to float64 ``ndarray`` exactly once, here:
    every later consumer (validation, fitting, fingerprinting) sees the
    same stored arrays, so the finiteness scan runs once per frame
    instead of once per access, and list/integer inputs cannot leak
    past construction.
    """

    surface: np.ndarray
    intensity: np.ndarray | None = None
    time_seconds: float = 0.0

    def __post_init__(self) -> None:
        s = np.asarray(self.surface)
        if not np.issubdtype(s.dtype, np.number) or np.issubdtype(s.dtype, np.complexfloating):
            raise ValueError(f"surface must be real-numeric, got dtype {s.dtype}")
        s = s.astype(np.float64, copy=False)
        if s.ndim != 2:
            raise ValueError(f"surface must be 2-D, got shape {s.shape}")
        if s.size == 0:
            raise ValueError("surface is empty")
        if not np.isfinite(s).all():
            raise ValueError("surface contains non-finite values (NaN or Inf)")
        object.__setattr__(self, "surface", s)
        if self.intensity is not None:
            i = np.asarray(self.intensity)
            if not np.issubdtype(i.dtype, np.number) or np.issubdtype(i.dtype, np.complexfloating):
                raise ValueError(f"intensity must be real-numeric, got dtype {i.dtype}")
            i = i.astype(np.float64, copy=False)
            if i.shape != s.shape:
                raise ValueError("intensity shape must match surface shape")
            if not np.isfinite(i).all():
                raise ValueError("intensity contains non-finite values (NaN or Inf)")
            object.__setattr__(self, "intensity", i)

    @property
    def shape(self) -> tuple[int, int]:
        return self.surface.shape


def pair_dt(before: Frame, after: Frame, dt_seconds: float | None) -> tuple[float, dict]:
    """``(dt, metadata)`` of a frame pair, for a :class:`MotionField`.

    ``dt`` is ``dt_seconds`` when given, else the timestamp difference.
    Equal or reversed timestamps substitute a placeholder of 1 s so
    pixel displacements stay usable, but *loudly*: a
    :class:`RuntimeWarning` names the caller's line, and the metadata
    records ``dt_substituted`` and the rejected interval.
    """
    metadata = {}
    if dt_seconds is None:
        dt_seconds = after.time_seconds - before.time_seconds
        if dt_seconds <= 0:
            metadata = {"dt_substituted": True, "dt_rejected_seconds": float(dt_seconds)}
            warnings.warn(
                f"frame timestamps are not increasing (dt = {float(dt_seconds)} s); "
                "substituting dt = 1 s -- derived wind speeds are in "
                "pixels/frame, not physical units",
                RuntimeWarning,
                stacklevel=3,
            )
            dt_seconds = 1.0
    return float(dt_seconds), metadata


class SMAnalyzer:
    """Dense non-rigid motion estimation with the SMA algorithm.

    Parameters
    ----------
    config:
        Neighborhood parameterization (e.g. :data:`repro.params.FREDERIC_CONFIG`).
    pixel_km:
        Ground sample distance used for wind conversion.
    ridge:
        Stabilizer for the 6x6 normal equations (0 for the strict
        formulation).
    search:
        Hypothesis schedule forwarded to
        :func:`repro.core.matching.track_dense` -- ``"exhaustive"``
        (default), ``"pruned"`` (bit-identical results, fewer GE
        solves) or ``"pyramid"`` (approximate coarse-to-fine,
        continuous model only).
    backend:
        Kernel backend forwarded to
        :func:`repro.core.matching.track_dense` -- ``"auto"`` (default:
        native C kernel when available, NumPy otherwise, bit-identical
        either way), ``"numpy"`` (pin the reference path) or
        ``"native"`` (require the C kernel).
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        pixel_km: float = 1.0,
        ridge: float = 1e-9,
        search: str = "exhaustive",
        backend: str = "auto",
    ) -> None:
        if pixel_km <= 0:
            raise ValueError("pixel_km must be positive")
        if search not in SEARCH_MODES:
            raise ValueError(
                f"unknown search mode {search!r} (choose from {', '.join(SEARCH_MODES)})"
            )
        if backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {', '.join(KERNEL_BACKENDS)})"
            )
        self.config = config
        self.pixel_km = pixel_km
        self.ridge = ridge
        self.search = search
        self.backend = backend

    # -- single pair ---------------------------------------------------------------

    def prepare(
        self,
        before: Frame,
        after: Frame,
        cache: FramePreparationCache | None = None,
    ) -> PreparedFrames:
        """Surface fits + semi-fluid precompute for one frame pair.

        :class:`Frame` already canonicalized and finite-checked the
        arrays in ``__post_init__``, so no re-validation happens here.
        ``cache`` optionally shares the per-frame half of the work
        across the pairs of a sequence (bit-identical either way).
        """
        if before.shape != after.shape:
            raise ValueError("frame shapes differ")
        min_side = 2 * self.config.margin() + 1
        if min(before.shape) < min_side:
            raise ValueError(
                f"image {before.shape} too small for config "
                f"{self.config.name!r} (needs at least {min_side} pixels per side)"
            )
        return prepare_frames(
            before.surface,
            after.surface,
            self.config,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
            cache=cache,
        )

    def track_pair(
        self,
        before: Frame | np.ndarray,
        after: Frame | np.ndarray,
        dt_seconds: float | None = None,
        cache: FramePreparationCache | None = None,
    ) -> MotionField:
        """Dense motion field between two frames.

        Arrays are accepted directly for the monocular case.  ``dt`` is
        taken from the frame timestamps unless given explicitly.  When
        the timestamps are equal or reversed a placeholder of 1 s is
        substituted so pixel displacements stay usable, but the
        substitution is *loud*: a :class:`RuntimeWarning` is emitted and
        ``metadata["dt_substituted"]`` records the rejected interval, so
        derived wind speeds are never silently wrong.
        """
        before = before if isinstance(before, Frame) else Frame(np.asarray(before))
        after = after if isinstance(after, Frame) else Frame(np.asarray(after))
        dt_seconds, dt_metadata = pair_dt(before, after, dt_seconds)
        prepared = self.prepare(before, after, cache=cache)
        result = track_dense(
            prepared, ridge=self.ridge, search=self.search, backend=self.backend
        )
        metadata = {
            "model": "semi-fluid" if self.config.is_semifluid else "continuous",
            "config": self.config.name,
            "hypotheses": result.hypotheses_evaluated,
            "search": self.search,
            "backend": self.backend,
            **dt_metadata,
        }
        return MotionField(
            u=result.u,
            v=result.v,
            valid=result.valid,
            error=result.error,
            params=result.params,
            dt_seconds=dt_seconds,
            pixel_km=self.pixel_km,
            metadata=metadata,
        )

    # -- sequences ------------------------------------------------------------------

    def track_sequence(
        self,
        frames: Sequence[Frame] | Iterable[np.ndarray],
        reuse_preparations: bool = True,
    ) -> list[MotionField]:
        """Motion fields for every consecutive pair of a sequence.

        This is the paper's T-timestep driver: T frames yield T-1
        fields (Hurricane Luis: 490 frames processed pairwise).

        ``reuse_preparations`` shares the per-frame surface fit and
        discriminant between the two pairs each interior frame belongs
        to, halving the sequence's surface-fit Gaussian eliminations;
        results are bit-identical with and without it.  To shard the
        pairs over a process pool, use
        :class:`~repro.reliability.stream.StreamingRunner` with
        ``workers``.
        """
        frame_list = [f if isinstance(f, Frame) else Frame(np.asarray(f)) for f in frames]
        if len(frame_list) < 2:
            raise ValueError("a sequence needs at least two frames")
        cache = FramePreparationCache(max_frames=4) if reuse_preparations else None
        return [
            self.track_pair(frame_list[m], frame_list[m + 1], cache=cache)
            for m in range(len(frame_list) - 1)
        ]

    # -- introspection ---------------------------------------------------------------

    def valid_region(self, shape: tuple[int, int]) -> np.ndarray:
        """The interior mask this configuration can track on a given shape."""
        return valid_mask(shape, self.config)

    def operation_counts(self, shape: tuple[int, int]) -> dict[str, int]:
        """Paper-style complexity accounting for one frame pair.

        Reproduces the Section 3 arithmetic: per tracked pixel,
        ``(2N_zs+1)^2`` Gaussian eliminations and as many template-error
        evaluations, each over ``(2N_zT+1)^2`` error terms; per template
        pixel, ``(2N_ss+1)^2`` semi-fluid error terms of ``(2N_sT+1)^2``
        discriminant comparisons each; plus four full-image surface
        fits.
        """
        c = self.config
        h, w = shape
        pixels = h * w
        counts = {
            "pixels_tracked": pixels,
            "hypotheses_per_pixel": c.hypotheses_per_pixel,
            "motion_gaussian_eliminations": pixels * c.hypotheses_per_pixel,
            "template_error_terms": pixels * c.hypotheses_per_pixel * c.template_pixels,
            "surface_fit_gaussian_eliminations": 4 * pixels,
        }
        if c.is_semifluid:
            counts["semifluid_error_terms_per_mapping"] = c.semifluid_candidates
            counts["semifluid_patch_comparisons"] = (
                pixels * c.precompute_window**2 * c.semifluid_patch_terms
            )
        return counts
