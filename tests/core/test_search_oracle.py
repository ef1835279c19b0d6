"""One search-exactness oracle over the option matrix.

Every row runs one way of minimizing eq. (7) over the same frame pair
and is checked against the exhaustive ``backend="numpy"`` result of
:func:`~repro.core.matching.track_dense`, computed in the same process:

* exact rows (the exhaustive and pruned schedules on the bit-identical
  backends, any ``batch_bytes``, the simulated machine, the degradation
  ladder) must match it byte for byte;
* pruned rows must also prove they skipped work, with solve accounting
  that adds up to the exhaustive count;
* the non-square rows repeat the exact rows on a crop whose sides are
  no multiple of the certificate stride (nor of the native box sum's
  row block), so the box-sum edges and the certificate-grid edges are
  checked byte for byte too;
* the odd rows repeat the ``track_dense`` rows (and the pyramid row)
  on a crop of 2,745 pixels, one more than a multiple of 8, so the
  native solve's 4- and 8-system lane groups straddle hypotheses and
  end short;
* the approximate rows keep their documented bounds: the device backend
  through :func:`repro.kernels.digest.compare_results`, the pyramid
  schedule through its mean endpoint error (its flips are real motion
  differences, not error ties, so the device flip rule does not apply).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core.matching import (
    DEFAULT_BATCH_BYTES,
    PHASE_MATCHING,
    prepare_frames,
    track_dense,
)
from repro.kernels.digest import compare_results
from repro.maspar.machine import scaled_machine
from repro.obs.metrics import METRICS
from repro.parallel.parallel_sma import ParallelSMA
from repro.reliability.degrade import DegradationLadder

MODELS = ("continuous", "semifluid")

#: Rows and columns of ``translation_frames`` kept by the non-square
#: case: 46 x 62 px (1 and 2 mod CERT_STRIDE, 2 mod the box sum's
#: 4-row block), folding onto a 23 x 31 PE grid.
CROP = (slice(5, 51), slice(1, 63))
CROP_MACHINE = (23, 31)

#: The odd case: 45 x 61 px = 2,745 pixels, 1 mod 8 and 1 mod 4, so a
#: one-hypothesis solve of the whole image ends on a one-system lane group.
ODD_CROP = (slice(5, 50), slice(1, 62))

#: Mean endpoint-error bound of the pyramid schedule (docs/performance.md).
PYRAMID_MAX_MEAN_EPE = 0.5


@dataclass(frozen=True)
class Row:
    """One oracle row: ``run(case) -> (result, matching GE solves)``.

    ``kind`` is ``"exact"``, ``"device"`` or ``"pyramid"``; ``pruned``
    rows must report skipped solves, the others the exhaustive count.
    """

    id: str
    model: str
    run: Callable
    kind: str = "exact"
    pruned: bool = False


@dataclass
class Case:
    prepared: object
    frames: tuple
    config: object
    reference: object
    machine: tuple = (8, 8)

    @property
    def full_solves(self) -> int:
        h, w = self.prepared.geo_before.shape
        return h * w * self.config.hypotheses_per_pixel


@pytest.fixture(scope="module")
def cases(prepared_continuous, prepared_semifluid, translation_frames,
          small_continuous_config, small_semifluid_config):
    out = {}
    for model, prepared, config in (
        ("continuous", prepared_continuous, small_continuous_config),
        ("semifluid", prepared_semifluid, small_semifluid_config),
    ):
        reference = track_dense(prepared, backend="numpy")
        out[model] = Case(prepared, translation_frames, config, reference)
        crop = tuple(frame[CROP].copy() for frame in translation_frames)
        prepared = prepare_frames(*crop, config)
        out[f"{model}-nonsquare"] = Case(
            prepared, crop, config, track_dense(prepared, backend="numpy"), CROP_MACHINE
        )
        crop = tuple(frame[ODD_CROP].copy() for frame in translation_frames)
        prepared = prepare_frames(*crop, config)
        out[f"{model}-odd"] = Case(prepared, crop, config, track_dense(prepared, backend="numpy"))
    return out


def _dense(search, backend="auto", batch_bytes=DEFAULT_BATCH_BYTES):
    def run(case):
        METRICS.reset()
        result = track_dense(
            case.prepared, search=search, backend=backend, batch_bytes=batch_bytes
        )
        if search == "pruned":
            counters = METRICS.snapshot()["counters"]
            assert counters["search.ge_solves.performed"] == result.ge_solves
            survivors = result.ge_solves - counters["search.certificate_solves"]
            assert counters["search.ge_solves.saved"] + survivors == case.full_solves
            assert counters["search.hypotheses.pruned"] == result.hypotheses_pruned > 0
        return result, result.ge_solves

    return run


def _matching_solves(ledger) -> int:
    return sum(
        ge for name, _, ge in ledger.breakdown(with_counts=True) if name == PHASE_MATCHING
    )


def _parallel(search, backend="auto", segment_rows=None):
    def run(case):
        f0, f1 = case.frames
        out = ParallelSMA(
            case.config, machine=scaled_machine(*case.machine), search=search, backend=backend,
            segment_rows=segment_rows,
        ).track_pair(f0, f1, dt_seconds=60.0)
        assert out.field.metadata["search"] == search
        if segment_rows == 1:
            # Segments of one hypothesis row run out of rank order, so
            # exact ties meet across segments: the integer-rank merge
            # must still pick the first minimum in hypothesis order.
            assert out.segments_processed == case.config.search_window
        return out.field, _matching_solves(out.ledger)

    return run


def _ladder(search):
    def run(case):
        f0, f1 = case.frames
        planned = case.config.search_window
        out, _ = DegradationLadder(case.config, search=search).track_pair(
            f0, f1, scaled_machine(8, 8), planned, dt_seconds=60.0
        )
        assert out.rung == 0
        return out, _matching_solves(out.ledger)

    return run


def _rows() -> list[Row]:
    rows = []
    for model in MODELS:
        for search in ("exhaustive", "pruned"):
            for backend in ("numpy", "auto"):
                for batch_bytes, label in ((1, "bb1"), (DEFAULT_BATCH_BYTES, "bbdefault")):
                    rows.append(Row(
                        f"{model}-{search}-{backend}-{label}", model,
                        _dense(search, backend, batch_bytes), pruned=search == "pruned",
                    ))
            for backend in ("numpy", "auto"):
                for segment_rows, label in ((None, "segdefault"), (1, "seg1")):
                    # The auto/default row keeps its original id.
                    suffix = "" if (backend, segment_rows) == ("auto", None) else (
                        f"-{backend}-{label}"
                    )
                    rows.append(Row(
                        f"{model}-parallel-{search}{suffix}", model,
                        _parallel(search, backend, segment_rows), pruned=search == "pruned",
                    ))
            rows.append(Row(f"{model}-device-{search}", model, _dense(search, "device"),
                            kind="device", pruned=search == "pruned"))
            for backend in ("numpy", "auto"):
                for runner, label in ((_dense, "dense"), (_parallel, "parallel")):
                    rows.append(Row(
                        f"{model}-nonsquare-{label}-{search}-{backend}", f"{model}-nonsquare",
                        runner(search, backend), pruned=search == "pruned",
                    ))
                rows.append(Row(
                    f"{model}-odd-dense-{search}-{backend}", f"{model}-odd",
                    _dense(search, backend), pruned=search == "pruned",
                ))
    rows.append(Row("continuous-ladder-pruned", "continuous", _ladder("pruned"), pruned=True))
    rows.append(Row("continuous-pyramid", "continuous", _dense("pyramid"), kind="pyramid"))
    rows.append(Row("continuous-odd-pyramid", "continuous-odd", _dense("pyramid"), kind="pyramid"))
    return rows


ROWS = _rows()


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_oracle_row(row, cases):
    case = cases[row.model]
    reference = case.reference
    result, solves = row.run(case)
    if row.kind == "exact":
        for name in ("u", "v", "params", "error"):
            if hasattr(result, name):
                got, want = getattr(result, name), getattr(reference, name)
                # Byte for byte: signed zeros count.
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                    f"{row.id}: {name} differs from exhaustive numpy"
                )
    elif row.kind == "device":
        report = compare_results(reference, result)
        assert report["within_tolerance"], report
    else:
        valid = reference.valid
        epe = np.hypot(result.u - reference.u, result.v - reference.v)[valid]
        assert epe.mean() <= PYRAMID_MAX_MEAN_EPE, f"mean endpoint error {epe.mean():.3f} px"
    if row.pruned or row.kind == "pyramid":
        assert solves < case.full_solves, f"{row.id}: no solves were skipped"
    else:
        assert solves == case.full_solves
