"""Fault-tolerant streaming driver for long frame sequences.

This is the operational shell around the paper's headline workload --
streaming a dense Hurricane-Luis-style sequence through the MPDA --
hardened so that *no single bad frame kills a 490-frame run*:

* frames are staged to the (optionally fault-injecting) disk array and
  read back pair by pair, validated on every read,
* transient disk faults are retried with backoff, charged to the cost
  ledger under ``"Fault recovery"``,
* unproducible pairs walk the :class:`~repro.reliability.degrade.DegradationLadder`
  instead of raising,
* after every pair the full run state is checkpointed atomically, and
  a killed run resumes to a bit-identical final field, ledger and
  report.

The run's product is the time-mean motion field over all pairs (the
sequence-level wind climatology the forecaster actually wants), plus a
:class:`~repro.reliability.report.RunReport` confessing every fault
and every degraded pair.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from ..core.field import MotionField
from ..core.matching import valid_mask
from ..core.prep import FramePreparationCache
from ..core.sma import Frame
from ..data.datasets import frame_key
from ..maspar.cost import CostLedger
from ..maspar.disk import DiskError, DiskWriteError, ParallelDiskArray
from ..maspar.machine import MachineConfig
from ..obs import absorb_payload
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..params import NeighborhoodConfig
from ..parallel.memory_plan import max_feasible_segment_rows, plan as memory_plan
from ..parallel.parallel_sma import machine_for_image
from .checkpoint import CheckpointError, StreamState, load_checkpoint, save_checkpoint
from .degrade import DegradationLadder
from .faults import FaultPlan
from .injection import FaultyDiskArray
from .report import RUNG_NAMES, RunReport
from .retry import RetryPolicy
from .validation import FrameValidationError, validate_frame

#: Ledger phase for MPDA traffic of the streaming loop.
PHASE_STREAMING = "Disk streaming"


@dataclasses.dataclass
class StreamResult:
    """Outcome of a streaming run (possibly partial, if stopped early)."""

    field: MotionField | None
    report: RunReport
    ledger: CostLedger
    pairs_done: int
    n_pairs: int
    completed: bool
    resumed: bool


class StreamingRunner:
    """Drives a frame sequence through the fault-tolerant streaming path.

    Parameters
    ----------
    config:
        Neighborhood configuration for the SMA rungs.
    machine:
        Healthy machine; defaults to a grid fitted to the image.
    retry:
        Bounds and backoff for transient-fault retries.
    fault_plan:
        Optional injected-fault schedule (None streams cleanly).
    checkpoint_path:
        Where to persist run state after every pair (None disables).
    workers:
        Shard independent pairs over a process pool (``> 1``).  The
        main process still performs every order-sensitive step (disk
        fetches, ledger charges, report events, checkpoints), so the
        run's field, ledger and report stay bit-identical to the
        sequential path.  Incompatible with ``fault_plan``: injected
        faults thread state (retry RNG, fault counters, prior fields)
        between consecutive pairs, which a pool cannot honor.  In
        workers mode checkpoints land at wave boundaries (every
        ``workers`` pairs) instead of after every pair.
    """

    def __init__(
        self,
        config: NeighborhoodConfig,
        machine: MachineConfig | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_path: str | None = None,
        hs_iterations: int = 60,
        pixel_km: float = 1.0,
        workers: int | None = None,
        search: str = "exhaustive",
        backend: str = "auto",
        transport: str = "pickle",
    ) -> None:
        from ..parallel.pairs import resolve_transport

        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        if workers is not None and workers > 1 and fault_plan is not None:
            raise ValueError(
                "workers cannot be combined with fault injection: fault "
                "handling threads state between consecutive pairs"
            )
        self.config = config
        self.machine = machine
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path
        self.pixel_km = pixel_km
        self.workers = workers
        self.search = search
        # DegradationLadder validates backend against KERNEL_BACKENDS.
        self.backend = backend
        # Pool frame transport ("pickle" or "shm") -- results are
        # bit-identical either way, so the checkpoint fingerprint does
        # NOT record it: a run may resume under the other transport.
        self.transport = resolve_transport(transport)
        self.ladder = DegradationLadder(
            config, hs_iterations=hs_iterations, search=search, backend=backend
        )

    # -- helpers --------------------------------------------------------------------

    def _fingerprint(self, shape: tuple[int, int], n_pairs: int) -> str:
        plan_digest = self.fault_plan.fingerprint() if self.fault_plan else "no-faults"
        c = self.config
        params = f"w{c.n_w}zs{c.n_zs}zt{c.n_zt}ss{c.n_ss}st{c.n_st}"
        base = f"{c.name}:{params}|{shape[0]}x{shape[1]}|{n_pairs}|{plan_digest}"
        # The default schedule keeps the historical fingerprint so
        # pre-existing checkpoints still resume; pruned produces
        # bit-identical fields, but a checkpoint's ledger/GE counts are
        # schedule-dependent, so the modes must not share checkpoints.
        if self.search != "exhaustive":
            base += f"|search={self.search}"
        # Same reasoning for the kernel backend: "auto", "numpy" and
        # "native" all produce bit-identical products, but the default
        # spelling keeps old checkpoints resumable; a non-default pin is
        # recorded so differently-pinned runs never share a checkpoint.
        if self.backend != "auto":
            base += f"|backend={self.backend}"
        return base

    def _checkpoint_file(self) -> str | None:
        if self.checkpoint_path is None:
            return None
        path = self.checkpoint_path
        return path if path.endswith(".npz") else path + ".npz"

    def _stage(self, frames, disk, ledger, rng, report: RunReport, quiet: bool) -> None:
        """Write the sequence to the disk array, retrying transient faults.

        ``quiet`` suppresses events/charges on resume (the restored
        checkpoint already accounts for the original staging).
        """
        for m, frame in enumerate(frames):
            payloads = [(frame_key(m), np.asarray(frame.surface, dtype=np.float64))]
            if frame.intensity is not None:
                payloads.append(
                    (frame_key(m, "intensity"), np.asarray(frame.intensity, dtype=np.float64))
                )
            for key, payload in payloads:
                for attempt in range(1, self.retry.max_attempts + 1):
                    try:
                        disk.write_frame(key, payload)
                        if attempt > 1 and not quiet:
                            report.record_event(
                                -1, "recovery", f"{key} written on attempt {attempt}",
                                "recovered", frame=m,
                            )
                        break
                    except DiskWriteError as exc:
                        if quiet:
                            continue
                        report.record_event(-1, "disk-write-error", str(exc), "retried", frame=m)
                        if attempt < self.retry.max_attempts:
                            self.retry.charge_backoff(attempt, ledger, rng)
                else:
                    if not quiet:
                        report.record_event(
                            -1, "disk-write-error",
                            f"{key}: write retries exhausted; frame missing on disk",
                            "gave-up", frame=m,
                        )

    def _fetch(
        self,
        disk,
        frame_idx: int,
        expected_shape: tuple[int, int],
        ledger: CostLedger,
        rng,
        report: RunReport,
        pair: int,
        channel: str | None = None,
    ) -> np.ndarray | None:
        """One frame off the disk: read, validate, retry; None if unrecoverable."""
        key = frame_key(frame_idx, channel)
        with TRACER.span("stream.fetch", frame=frame_idx, channel=channel or "surface"):
            return self._fetch_inner(
                disk, key, frame_idx, expected_shape, ledger, rng, report, pair
            )

    def _fetch_inner(
        self, disk, key, frame_idx, expected_shape, ledger, rng, report, pair
    ) -> np.ndarray | None:
        for attempt in range(1, self.retry.max_attempts + 1):
            last = attempt == self.retry.max_attempts
            try:
                with ledger.phase(PHASE_STREAMING):
                    arr = disk.read_frame(key)
            except DiskError as exc:
                report.record_event(
                    pair, "disk-read-error", str(exc),
                    "gave-up" if last else "retried", frame=frame_idx,
                )
                if last:
                    return None
                self.retry.charge_backoff(attempt, ledger, rng)
                continue
            except KeyError as exc:
                report.record_event(
                    pair, "disk-read-error", f"missing frame: {exc}", "gave-up", frame=frame_idx
                )
                return None
            try:
                validate_frame(arr, expected_shape=expected_shape, name=key)
            except FrameValidationError as exc:
                report.record_event(
                    pair, "corrupt-frame", str(exc),
                    "gave-up" if last else "retried", frame=frame_idx,
                )
                if last:
                    return None
                self.retry.charge_backoff(attempt, ledger, rng)
                continue
            if attempt > 1:
                report.record_event(
                    pair, "recovery", f"{key} read cleanly on attempt {attempt}",
                    "recovered", frame=frame_idx,
                )
            return arr
        return None  # pragma: no cover - loop always returns

    def _machine_for_pair(self, pair: int, shape, machine, report: RunReport):
        """Healthy machine, unless dead PE rows force a smaller fold."""
        plan = self.fault_plan
        dead = plan.dead_rows_at(pair) if plan else 0
        if dead <= 0:
            return machine
        reduced = machine_for_image(
            shape,
            max_grid=max(1, machine.nyproc - dead),
            pe_memory_bytes=machine.pe_memory_bytes,
        )
        if plan and pair in plan.dead_pe_rows:
            report.record_event(
                pair, "dead-pe-rows",
                f"{dead} PE row(s) dead; refolded onto "
                f"{reduced.nyproc}x{reduced.nxproc}",
                "remapped",
            )
        return reduced

    def _fetch_pair(self, disk, pair, shape, ledger, rng, report, has_intensity):
        """Both frames of a pair (+ intensity channels) off the disk, in order."""
        before = self._fetch(disk, pair, shape, ledger, rng, report, pair)
        after = self._fetch(disk, pair + 1, shape, ledger, rng, report, pair)
        int_before = int_after = None
        if has_intensity and before is not None and after is not None:
            int_before = self._fetch(
                disk, pair, shape, ledger, rng, report, pair, channel="intensity"
            )
            int_after = self._fetch(
                disk, pair + 1, shape, ledger, rng, report, pair, channel="intensity"
            )
            if int_before is None or int_after is None:
                before = after = None  # the semi-fluid model needs both channels
        return before, after, int_before, int_after

    def _fit_images_for_pair(self, pair: int, int_before) -> int | None:
        """Positional surface-fit charge for the ledger.

        Pair 0 pays full price (both frames); later pairs pay for the
        newly arrived frame only, because the preparation cache already
        holds the shared frame's fit.  Keyed on the pair *index*, not on
        cache warmth, so a resumed run (which restarts with a cold
        cache) reproduces the uninterrupted run's ledger exactly.
        """
        if pair == 0:
            return None
        full = 4 if self.config.is_semifluid or int_before is not None else 2
        return full // 2

    @staticmethod
    def _absorb(pair, result, state, ledger, report, wall_seconds=None) -> None:
        """Merge one pair's result into the running state, in pair order."""
        state.sum_u += result.u
        state.sum_v += result.v
        state.sum_error += result.error
        state.last_u = np.array(result.u, dtype=np.float64, copy=True)
        state.last_v = np.array(result.v, dtype=np.float64, copy=True)
        state.last_error = np.array(result.error, dtype=np.float64, copy=True)
        state.has_last = True
        if result.ledger is not None:
            ledger.merge(result.ledger)
        report.record_outcome(
            pair, result.rung, result.segment_rows, result.seconds,
            wall_seconds=wall_seconds,
        )
        state.pairs_done = pair + 1

    def _mean_field(self, state, shape, dts, report, machine, **metadata) -> MotionField | None:
        """The mean motion field over the pairs done (None before the first);
        ``metadata`` adds keys after the common ones."""
        n = state.pairs_done
        if n == 0:
            return None
        return MotionField(
            u=state.sum_u / n,
            v=state.sum_v / n,
            valid=valid_mask(shape, self.config),
            error=state.sum_error / n,
            dt_seconds=float(np.mean(dts)),
            pixel_km=self.pixel_km,
            metadata={
                "model": "semi-fluid" if self.config.is_semifluid else "continuous",
                "config": self.config.name,
                "pairs": n,
                "degraded_pairs": len(report.degraded_pairs),
                "machine": f"{machine.nyproc}x{machine.nxproc}",
                **metadata,
            },
        )

    @staticmethod
    def _save_checkpoint(checkpoint_file, state, ledger, report, rng, disk) -> None:
        state.report = report
        state.ledger_state = ledger.snapshot()
        state.rng_state = rng.bit_generator.state
        if isinstance(disk, FaultyDiskArray):
            state.fault_state = disk.fault_state()
        with TRACER.span("checkpoint.write", pairs_done=state.pairs_done):
            save_checkpoint(checkpoint_file, state)
        METRICS.inc("checkpoint.writes")

    def _run_pool(
        self,
        frame_list,
        state,
        n_pairs,
        shape,
        dts,
        machine,
        disk,
        ledger,
        rng,
        report,
        stop_after,
        checkpoint_file,
    ) -> None:
        """Workers mode: shard pairs over a pool, wave by wave.

        Only runs without a fault plan (enforced at construction), so
        every pair is independent: the machine is healthy, retries never
        fire, and the interpolation rung's prior-field dependence is
        unreachable for frames that staged successfully.  The main
        process fetches frames and merges results strictly in pair
        order, so ledger charges and report rows land exactly as the
        sequential path would place them.  Checkpoints are written at
        wave boundaries -- at those points the ledger matches the
        sequential run's checkpoint bit for bit, which keeps resume
        (sequential or pooled) bit-identical.
        """
        from ..parallel.pairs import LadderPool

        processed = 0
        n_procs = min(self.workers, max(1, n_pairs - state.pairs_done))
        with LadderPool(
            self.config,
            self.ladder.hs_iterations,
            n_procs,
            search=self.search,
            backend=self.backend,
            transport=self.transport,
        ) as pool:
            pair = state.pairs_done
            while pair < n_pairs:
                remaining = n_pairs - pair
                if stop_after is not None:
                    remaining = min(remaining, stop_after - processed)
                if remaining <= 0:
                    break
                wave = min(self.workers, remaining)

                pending = []
                for p in range(pair, pair + wave):
                    machine_p = self._machine_for_pair(p, shape, machine, report)
                    layers = machine_p.layers_for_image(*shape)
                    planned = max(
                        1, max_feasible_segment_rows(self.config, layers, machine_p)
                    )
                    has_intensity = frame_list[p].intensity is not None
                    before, after, int_before, int_after = self._fetch_pair(
                        disk, p, shape, ledger, rng, report, has_intensity
                    )
                    if before is None or after is None:
                        pending.append((p, None))
                        continue
                    task = (
                        p, before, after, machine_p, planned, dts[p],
                        int_before, int_after,
                        self._fit_images_for_pair(p, int_before),
                    )
                    pending.append((p, pool.submit(task)))

                for p, handle in pending:
                    wall = None
                    if handle is None:
                        result = DegradationLadder.interpolate(
                            shape, None, None, None
                        )
                        report.record_event(
                            p, "frame-unusable",
                            "frame pair unrecoverable after retries", "interpolated",
                        )
                    else:
                        _, result, steps, wall, payload = pool.resolve(handle)
                        absorb_payload(payload)
                        for step in steps:
                            report.record_event(
                                p, step.kind, step.detail, RUNG_NAMES[result.rung]
                            )
                    self._absorb(p, result, state, ledger, report, wall_seconds=wall)
                    processed += 1

                if checkpoint_file:
                    self._save_checkpoint(
                        checkpoint_file, state, ledger, report, rng, disk
                    )
                pair += wave

    # -- the run --------------------------------------------------------------------

    def run(
        self,
        frames,
        resume: bool = False,
        stop_after: int | None = None,
    ) -> StreamResult:
        """Stream the sequence end to end (or ``stop_after`` pairs of it).

        ``resume=True`` continues from the checkpoint if one exists and
        matches this run's fingerprint; a fresh run otherwise.
        """
        frame_list = [f if isinstance(f, Frame) else Frame(np.asarray(f)) for f in frames]
        if len(frame_list) < 2:
            raise ValueError("a streaming run needs at least two frames")
        shape = frame_list[0].shape
        for m, f in enumerate(frame_list):
            if f.shape != shape:
                raise ValueError(f"frame {m} shape {f.shape} != {shape}")
        n_pairs = len(frame_list) - 1
        dts = []
        for m in range(n_pairs):
            dt = frame_list[m + 1].time_seconds - frame_list[m].time_seconds
            dts.append(dt if dt > 0 else 1.0)

        machine = self.machine or machine_for_image(shape)
        ledger = CostLedger(machine)
        report = RunReport()
        fingerprint = self._fingerprint(shape, n_pairs)
        checkpoint_file = self._checkpoint_file()

        state: StreamState | None = None
        if resume and checkpoint_file and os.path.exists(checkpoint_file):
            state = load_checkpoint(checkpoint_file)
            if state.fingerprint != fingerprint:
                raise CheckpointError(
                    f"checkpoint fingerprint {state.fingerprint!r} does not match "
                    f"this run ({fingerprint!r}); refusing to resume"
                )
            report = state.report
            ledger.restore(state.ledger_state)
        resumed = state is not None
        if state is None:
            state = StreamState.fresh(fingerprint, n_pairs, shape)

        rng = np.random.default_rng(self.fault_plan.seed if self.fault_plan else 0)
        if resumed and state.rng_state is not None:
            rng.bit_generator.state = state.rng_state

        inner = ParallelDiskArray(machine, ledger=None if resumed else ledger)
        disk = FaultyDiskArray(inner, self.fault_plan) if self.fault_plan else inner
        with TRACER.span("stream.stage", frames=len(frame_list), ledger=ledger):
            with ledger.phase(PHASE_STREAMING):
                self._stage(frame_list, disk, ledger, rng, report, quiet=resumed)
        inner.ledger = ledger
        if resumed and isinstance(disk, FaultyDiskArray) and state.fault_state:
            disk.restore_fault_state(state.fault_state)

        prep_cache = FramePreparationCache(max_frames=4)
        if self.workers is not None and self.workers > 1:
            self._run_pool(
                frame_list, state, n_pairs, shape, dts, machine, disk,
                ledger, rng, report, stop_after, checkpoint_file,
            )
        else:
            processed_this_call = 0
            for pair in range(state.pairs_done, n_pairs):
                if stop_after is not None and processed_this_call >= stop_after:
                    break
                machine_p = self._machine_for_pair(pair, shape, machine, report)

                layers = machine_p.layers_for_image(*shape)
                planned = max(
                    1, max_feasible_segment_rows(self.config, layers, machine_p)
                )

                machine_run = machine_p
                if self.fault_plan and pair in self.fault_plan.pe_memory_faults:
                    budget = memory_plan(self.config, layers, planned).total_bytes
                    squeezed = min(machine_p.pe_memory_bytes, budget - 1)
                    machine_run = dataclasses.replace(
                        machine_p, pe_memory_bytes=squeezed
                    )

                has_intensity = frame_list[pair].intensity is not None
                pair_span = TRACER.span("stream.pair", pair=pair, ledger=ledger)
                pair_span.__enter__()
                t0 = time.perf_counter()
                try:
                    before, after, int_before, int_after = self._fetch_pair(
                        disk, pair, shape, ledger, rng, report, has_intensity
                    )

                    last_u = state.last_u if state.has_last else None
                    last_v = state.last_v if state.has_last else None
                    last_err = state.last_error if state.has_last else None
                    if before is None or after is None:
                        result = DegradationLadder.interpolate(
                            shape, last_u, last_v, last_err
                        )
                        report.record_event(
                            pair, "frame-unusable",
                            "frame pair unrecoverable after retries", "interpolated",
                        )
                    else:
                        result, steps = self.ladder.track_pair(
                            before,
                            after,
                            machine_run,
                            planned,
                            dt_seconds=dts[pair],
                            intensity_before=int_before,
                            intensity_after=int_after,
                            last_u=last_u,
                            last_v=last_v,
                            last_error=last_err,
                            prep_cache=prep_cache,
                            fit_images=self._fit_images_for_pair(pair, int_before),
                        )
                        for step in steps:
                            report.record_event(
                                pair, step.kind, step.detail, RUNG_NAMES[result.rung]
                            )
                finally:
                    pair_span.__exit__(None, None, None)

                self._absorb(
                    pair, result, state, ledger, report,
                    wall_seconds=time.perf_counter() - t0,
                )
                processed_this_call += 1

                if checkpoint_file:
                    self._save_checkpoint(
                        checkpoint_file, state, ledger, report, rng, disk
                    )

        return StreamResult(
            field=self._mean_field(state, shape, dts, report, machine),
            report=report,
            ledger=ledger,
            pairs_done=state.pairs_done,
            n_pairs=n_pairs,
            completed=state.pairs_done == n_pairs,
            resumed=resumed,
        )

    # -- live ingestion -------------------------------------------------------------

    def run_live(self, source, max_pairs: int | None = None) -> StreamResult:
        """Consume frames from a live ring as they arrive (``ring://NAME``).

        ``source`` is a :class:`~repro.bus.source.RingFrameSource`.  The
        per-pair computation is exactly :meth:`run`'s sequential path --
        same ladder, same positional surface-fit charges, same absorb
        order -- so on an identical frame sequence the per-pair fields
        (and the mean field) are bit-identical to a batch run.  What
        differs is the shell: frames stream from shared memory instead
        of being staged to the disk array, there are no checkpoints
        (the ring is the source of truth; a restarted consumer re-reads
        what is still resident), and a frame the publisher overwrote or
        tore before we read it is interpolated over like an
        unrecoverable disk frame, with the gap confessed in the report.
        """
        if self.fault_plan is not None:
            raise ValueError("fault injection applies to staged runs, not live rings")
        if self.workers is not None and self.workers > 1:
            raise ValueError(
                "live consumption is sequential: pairs chain through "
                "last-field state as frames arrive"
            )

        ledger = None
        report = RunReport()
        prep_cache = FramePreparationCache(max_frames=4)
        state = None
        machine = None
        planned = None
        shape = None
        dts: list[float] = []
        prev = None  # previous BusFrame
        pair = 0

        for bus_frame in source.frames():
            frame = bus_frame.frame
            if shape is None:
                shape = frame.shape
                machine = self.machine or machine_for_image(shape)
                ledger = CostLedger(machine)
                layers = machine.layers_for_image(*shape)
                planned = max(
                    1, max_feasible_segment_rows(self.config, layers, machine)
                )
                state = StreamState.fresh(
                    self._fingerprint(shape, 0) + "|live", 0, shape
                )
            elif frame.shape != shape:
                report.record_event(
                    pair, "corrupt-frame",
                    f"live frame shape {frame.shape} != {shape}", "skipped",
                )
                continue
            if bus_frame.preparation is not None:
                prep_cache.seed(bus_frame.preparation)
            if prev is None:
                prev = bus_frame
                continue

            gap = bus_frame.seq - prev.seq - 1
            if gap > 0:
                report.record_event(
                    pair, "frames-missed",
                    f"{gap} frame(s) overwritten or torn before read "
                    f"(seq {prev.seq + 1}..{bus_frame.seq - 1})",
                    "interpolated",
                )
                METRICS.inc("stream.live.gaps")
            dt = frame.time_seconds - prev.frame.time_seconds
            dts.append(dt if dt > 0 else 1.0)

            t0 = time.perf_counter()
            with TRACER.span("stream.pair", pair=pair, ledger=ledger):
                result, steps = self.ladder.track_pair(
                    prev.frame.surface,
                    frame.surface,
                    machine,
                    planned,
                    dt_seconds=dts[-1],
                    intensity_before=prev.frame.intensity,
                    intensity_after=frame.intensity,
                    last_u=state.last_u if state.has_last else None,
                    last_v=state.last_v if state.has_last else None,
                    last_error=state.last_error if state.has_last else None,
                    prep_cache=prep_cache,
                    fit_images=self._fit_images_for_pair(
                        pair, prev.frame.intensity
                    ),
                )
            for step in steps:
                report.record_event(
                    pair, step.kind, step.detail, RUNG_NAMES[result.rung]
                )
            self._absorb(
                pair, result, state, ledger, report,
                wall_seconds=time.perf_counter() - t0,
            )
            METRICS.inc("stream.live.pairs")
            pair += 1
            prev = bus_frame
            if max_pairs is not None and pair >= max_pairs:
                break

        if state is None:
            raise RuntimeError(
                f"ring {source.name!r} closed before yielding a single frame"
            )
        field = self._mean_field(
            state, shape, dts, report, machine,
            source=f"ring://{source.name}", frames_missed=source.missed,
        )
        return StreamResult(
            field=field,
            report=report,
            ledger=ledger,
            pairs_done=state.pairs_done,
            n_pairs=pair,
            completed=True,
            resumed=False,
        )
