"""Named shared-memory rings for frames and motion fields.

:class:`FrameRing` is the publisher->consumer half of the bus: a
publisher (the ``repro ingest`` daemon, or a pool dispatcher staging a
batch) writes each prepared frame **once** into a slot; any number of
consumers attach by name and map the same planes zero-copy.
:class:`ResultRing` carries dense :class:`~repro.core.field.MotionField`
outputs the opposite direction, with a consumed-cursor handshake so a
fast worker cannot overwrite a field the dispatcher has not collected.

Both are thin layers over :class:`ShmRing`, which owns the segment
lifecycle (create/attach/close/unlink), the seqlock write/read protocol
described in :mod:`repro.bus.layout`, and the stale-segment GC that
reclaims rings whose owning process died without unlinking.

Lifecycle rules:

* exactly one process *owns* a ring (normally its creator) and is
  responsible for :meth:`ShmRing.unlink`;
* every attach deregisters the segment from CPython's
  ``resource_tracker`` so a departing reader can never unlink a ring
  out from under the publisher (the tracker registers unconditionally
  on POSIX before 3.13) -- cleanup is explicit or via
  :func:`gc_stale_segments`, never interpreter-exit magic;
* :func:`gc_stale_segments` scans ``/dev/shm`` for ``repro-bus-*``
  segments whose recorded ``owner_pid`` is no longer alive and unlinks
  them, so a SIGKILLed publisher leaks nothing past the next sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.prep import FramePreparation
from ..core.surface import SurfaceGeometry
from ..obs.metrics import METRICS
from . import layout
from .layout import (
    FLAG_INTENSITY,
    FLAG_PARAMS,
    FLAG_PREP,
    FP_BYTES,
    H_CAPACITY,
    H_CHANNELS,
    H_CLOSED,
    H_FLAGS,
    H_HEIGHT,
    H_MAGIC,
    H_OWNER_PID,
    H_VERSION,
    H_WIDTH,
    H_WRITE_CURSOR,
    HEADER_WORDS,
    MAGIC,
    META_COLS,
    SEGMENT_PREFIX,
    VERSION,
)


class RingError(RuntimeError):
    """Base class for bus failures."""


class RingNotFound(RingError):
    """No segment with the requested name exists (never created, or unlinked)."""


class TornSlot(RingError):
    """The slot was mid-write (odd generation) or rewritten during the read."""


class SlotMissed(RingError):
    """The requested sequence number is no longer (or not yet) resident."""


def _unregister(shm: shared_memory.SharedMemory) -> None:
    """Drop ``shm`` from the resource tracker (explicit lifecycle instead).

    CPython < 3.13 registers every ``SharedMemory`` with the tracker,
    including plain attaches, so an exiting reader would unlink the
    publisher's segment.  The bus manages unlink explicitly.
    """
    try:  # pragma: no branch - trivial
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker absent on some platforms
        pass


@dataclass
class SlotRead:
    """One successfully validated slot read.

    ``planes`` is ``(channels, H, W)`` float64 -- a copy by default, or
    a live view into the segment when the caller asked for zero-copy
    (safe only while the slot's generation is unchanged; re-check with
    the owning ring's :meth:`ShmRing.slot_stable`).
    """

    seq: int
    slot: int
    generation: int
    planes: np.ndarray
    meta: np.ndarray
    fingerprint: str


class ShmRing:
    """Fixed-geometry seqlock ring over one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, name: str, owner: bool):
        self._shm = shm
        self.name = name
        self.owner = owner
        header = np.ndarray((HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
        if int(header[H_MAGIC]) != MAGIC:
            raise RingError(f"segment {name!r} is not a repro bus ring")
        if int(header[H_VERSION]) != VERSION:
            raise RingError(
                f"ring {name!r} layout v{int(header[H_VERSION])} != v{VERSION}"
            )
        self.capacity = int(header[H_CAPACITY])
        self.height = int(header[H_HEIGHT])
        self.width = int(header[H_WIDTH])
        self.channels = int(header[H_CHANNELS])
        self.flags = int(header[H_FLAGS])
        off = layout.region_offsets(self.capacity, self.height, self.width, self.channels)
        buf = shm.buf
        self._header = header
        self._generation = np.ndarray(
            (self.capacity,), dtype=np.int64, buffer=buf, offset=off["generation"]
        )
        self._seq = np.ndarray(
            (self.capacity,), dtype=np.int64, buffer=buf, offset=off["seq"]
        )
        self._consumed = np.ndarray(
            (self.capacity,), dtype=np.int64, buffer=buf, offset=off["consumed"]
        )
        self._meta = np.ndarray(
            (self.capacity, META_COLS), dtype=np.float64, buffer=buf, offset=off["meta"]
        )
        self._fp = np.ndarray(
            (self.capacity, FP_BYTES), dtype=np.uint8, buffer=buf, offset=off["fingerprint"]
        )
        self._payload = np.ndarray(
            (self.capacity, self.channels, self.height, self.width),
            dtype=np.float64,
            buffer=buf,
            offset=off["payload"],
        )

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        capacity: int,
        height: int,
        width: int,
        channels: int,
        flags: int = 0,
    ) -> "ShmRing":
        """Create, zero and own a new named ring."""
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        size = layout.segment_size(capacity, height, width, channels)
        try:
            shm = shared_memory.SharedMemory(
                name=SEGMENT_PREFIX + name, create=True, size=size
            )
        except FileExistsError:
            raise RingError(f"ring {name!r} already exists (unlink it first)") from None
        _unregister(shm)
        header = np.ndarray((HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
        header[:] = 0
        header[H_CAPACITY] = capacity
        header[H_HEIGHT] = height
        header[H_WIDTH] = width
        header[H_CHANNELS] = channels
        header[H_FLAGS] = flags
        header[H_OWNER_PID] = os.getpid()
        header[H_VERSION] = VERSION
        header[H_MAGIC] = MAGIC  # magic last: attachers see a valid header or none
        ring = cls(shm, name=name, owner=True)
        ring._seq[:] = -1
        ring._consumed[:] = -1
        return ring

    @classmethod
    def attach(cls, name: str, timeout: float = 0.0, poll: float = 0.02) -> "ShmRing":
        """Attach to an existing ring, optionally waiting for it to appear.

        A segment that exists but is still shorter than a header, or
        fails header validation, is retried within the timeout too: the
        creator sizes the segment after opening it and stamps the magic
        word last, so an attacher racing :meth:`create` can open the
        segment a beat before the header is ready.
        """
        deadline = time.monotonic() + timeout
        t0 = time.perf_counter()
        while True:
            try:
                shm = _open_segment(SEGMENT_PREFIX + name)
            except FileNotFoundError:
                if time.monotonic() >= deadline:
                    raise RingNotFound(f"no ring named {name!r}") from None
                time.sleep(poll)
                continue
            error = RingError(f"segment {name!r} is shorter than a ring header")
            if shm is not None:
                try:
                    ring = cls(shm, name=name, owner=False)
                    break
                except RingError as exc:
                    shm.close()
                    error = exc
            if time.monotonic() >= deadline:
                raise error
            time.sleep(poll)
        METRICS.observe("bus.attach.seconds", time.perf_counter() - t0)
        METRICS.inc("bus.attaches")
        return ring

    def close(self) -> None:
        """Unmap this process's view (does not destroy the segment)."""
        try:
            self._header = self._generation = self._seq = None
            self._consumed = self._meta = self._fp = self._payload = None
            self._shm.close()
        except BufferError:  # pragma: no cover - outstanding zero-copy views
            pass

    def unlink(self) -> None:
        """Destroy the segment.  Idempotent; racing unlinks are benign."""
        try:
            # SharedMemory.unlink() sends its own tracker unregister;
            # re-register first so the messages balance (we already
            # deregistered at create/attach time).
            resource_tracker.register(self._shm._name, "shared_memory")
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def mark_closed(self) -> None:
        """Publisher's end-of-stream signal: consumers drain then detach."""
        self._header[H_CLOSED] = 1

    @property
    def closed(self) -> bool:
        return bool(self._header[H_CLOSED])

    @property
    def owner_pid(self) -> int:
        return int(self._header[H_OWNER_PID])

    @property
    def write_cursor(self) -> int:
        """Next sequence number to be written (== frames published so far)."""
        return int(self._header[H_WRITE_CURSOR])

    @property
    def nbytes(self) -> int:
        return self._shm.size

    @property
    def slot_bytes(self) -> int:
        """Payload bytes per slot -- the pickle bytes one zero-copy read avoids."""
        return self.channels * self.height * self.width * np.dtype(np.float64).itemsize

    def occupancy(self) -> int:
        """Resident, unconsumed slots (for the occupancy gauge)."""
        cursor = self.write_cursor
        low = max(0, cursor - self.capacity)
        return int(
            sum(
                1
                for s in range(low, cursor)
                if self._seq[s % self.capacity] == s
                and self._consumed[s % self.capacity] < s
            )
        )

    # -- seqlock write ------------------------------------------------------------

    def publish(
        self,
        planes,
        meta: list[float],
        fingerprint: str = "",
        wait_consumed: bool = False,
        timeout: float = 30.0,
        seq: int | None = None,
    ) -> int:
        """Write one slot and return its sequence number.

        ``planes`` is an iterable of ``channels`` arrays of shape
        ``(H, W)`` (``None`` entries zero-fill their plane).  With
        ``wait_consumed`` the writer blocks until the slot's current
        occupant was acknowledged via :meth:`mark_consumed` -- the
        result-ring backpressure that keeps fields from being
        overwritten before collection.

        Without ``seq`` the next cursor value is claimed -- a
        read-modify-write that is safe only for a **single** publishing
        process (the frame-ring shape: one ingest daemon or one pool
        dispatcher).  Concurrent publishers -- pool workers returning
        results -- must pass an explicit, externally unique ``seq``
        (the pair index): each writer then owns slot ``seq % capacity``
        outright and no cursor is raced, so two workers can never
        interleave seqlock writes on the same slot.
        """
        if seq is None:
            seq = self.write_cursor
        slot = seq % self.capacity
        if wait_consumed:
            deadline = time.monotonic() + timeout
            while True:
                resident = int(self._seq[slot])
                if resident < 0 or int(self._consumed[slot]) >= resident:
                    break
                if time.monotonic() >= deadline:
                    raise RingError(
                        f"ring {self.name!r} slot {slot} not consumed after {timeout}s"
                    )
                time.sleep(0.001)
        self._generation[slot] += 1  # odd: write in progress
        try:
            for c, plane in enumerate(planes):
                if plane is None:
                    self._payload[slot, c] = 0.0
                else:
                    self._payload[slot, c] = plane
            row = self._meta[slot]
            row[:] = 0.0
            row[: len(meta)] = meta
            fp = fingerprint.encode("ascii")[:FP_BYTES]
            self._fp[slot, : len(fp)] = np.frombuffer(fp, dtype=np.uint8)
            self._fp[slot, len(fp):] = 0
            self._seq[slot] = seq
        finally:
            self._generation[slot] += 1  # even: slot complete
        # Monotonic advance.  Concurrent explicit-seq writers can race
        # the store and briefly understate the cursor; it is advisory on
        # result rings (consumers are handed exact seqs), so the gauge
        # self-heals on the next publish.
        if seq >= self.write_cursor:
            self._header[H_WRITE_CURSOR] = seq + 1
        METRICS.inc("bus.frames.published")
        METRICS.set_gauge("bus.ring.occupancy", float(self.occupancy()))
        return seq

    # -- seqlock read -------------------------------------------------------------

    def read(self, seq: int, copy: bool = True) -> SlotRead:
        """Validated read of sequence number ``seq``.

        Raises :class:`SlotMissed` when the slot no longer (or not yet)
        holds ``seq``, and :class:`TornSlot` when a write was in
        progress or landed mid-read.  With ``copy=False`` the returned
        planes alias the segment; call :meth:`slot_stable` after use.
        """
        slot = seq % self.capacity
        gen0 = int(self._generation[slot])
        if gen0 % 2 == 1:
            METRICS.inc("bus.torn_reads")
            raise TornSlot(f"ring {self.name!r} slot {slot} is mid-write")
        if int(self._seq[slot]) != seq:
            raise SlotMissed(f"seq {seq} not resident in ring {self.name!r}")
        planes = self._payload[slot]
        meta = np.array(self._meta[slot])
        fp = bytes(self._fp[slot]).rstrip(b"\x00").decode("ascii")
        if copy:
            planes = np.array(planes)
        gen1 = int(self._generation[slot])
        if gen1 != gen0:
            METRICS.inc("bus.torn_reads")
            raise TornSlot(f"ring {self.name!r} slot {slot} rewritten during read")
        return SlotRead(
            seq=seq, slot=slot, generation=gen0, planes=planes, meta=meta, fingerprint=fp
        )

    def slot_stable(self, read: SlotRead) -> bool:
        """True while a zero-copy :class:`SlotRead` still maps valid data."""
        return int(self._generation[read.slot]) == read.generation

    def mark_consumed(self, seq: int) -> None:
        """Acknowledge ``seq`` so the writer may reuse its slot."""
        slot = seq % self.capacity
        if int(self._consumed[slot]) < seq:
            self._consumed[slot] = seq
        METRICS.set_gauge("bus.ring.occupancy", float(self.occupancy()))

    def wait_for(self, seq: int, timeout: float = 10.0, poll: float = 0.002) -> None:
        """Block until ``seq`` has been published (or the ring closes)."""
        deadline = time.monotonic() + timeout
        while self.write_cursor <= seq:
            if self.closed:
                raise RingError(f"ring {self.name!r} closed before seq {seq}")
            if time.monotonic() >= deadline:
                raise RingError(f"timed out waiting for seq {seq} on {self.name!r}")
            time.sleep(poll)


#: FrameRing prep planes, in payload order after surface/intensity.
#: The first eight rebuild :class:`~repro.core.surface.SurfaceGeometry`;
#: ``disc_field`` is the intensity discriminant of the semi-fluid
#: mapping (``FramePreparation.discriminant``).
PREP_PLANES = (
    "p", "q", "normal_i", "normal_j", "normal_k", "e", "g", "discriminant",
)

# Frame meta columns.
FM_TIME = 0
FM_PIXEL_KM = 1
FM_HAS_INTENSITY = 2
FM_HAS_DISC = 3


@dataclass
class BusFrame:
    """One frame consumed from a :class:`FrameRing`."""

    seq: int
    frame: object  # repro.core.sma.Frame
    preparation: FramePreparation | None
    pixel_km: float
    fingerprint: str


class FrameRing(ShmRing):
    """Ring of prepared-frame stacks: intensity + fitted geometry planes."""

    @classmethod
    def create_frames(
        cls,
        name: str,
        capacity: int,
        height: int,
        width: int,
        intensity: bool = False,
        prep: bool = True,
    ) -> "FrameRing":
        channels = 1 + (1 if intensity else 0) + ((len(PREP_PLANES) + 1) if prep else 0)
        flags = (FLAG_INTENSITY if intensity else 0) | (FLAG_PREP if prep else 0)
        return cls.create(name, capacity, height, width, channels, flags=flags)

    @property
    def has_intensity(self) -> bool:
        return bool(self.flags & FLAG_INTENSITY)

    @property
    def has_prep(self) -> bool:
        return bool(self.flags & FLAG_PREP)

    def publish_frame(
        self,
        frame,
        preparation: FramePreparation | None = None,
        pixel_km: float = 1.0,
        wait_consumed: bool = False,
    ) -> int:
        """Write one :class:`~repro.core.sma.Frame` (plus optional prep)."""
        planes: list = [frame.surface]
        has_int = frame.intensity is not None
        if self.has_intensity:
            planes.append(frame.intensity)
        elif has_int:
            raise RingError("ring was created without an intensity channel")
        fingerprint = ""
        has_disc = False
        if self.has_prep:
            if preparation is None:
                raise RingError("prep-carrying ring needs a FramePreparation")
            geo = preparation.geometry
            planes.extend(getattr(geo, plane) for plane in PREP_PLANES)
            planes.append(preparation.discriminant)
            has_disc = preparation.discriminant is not None
            fingerprint = preparation.fingerprint
        meta = [0.0] * 4
        meta[FM_TIME] = float(frame.time_seconds)
        meta[FM_PIXEL_KM] = float(pixel_km)
        meta[FM_HAS_INTENSITY] = 1.0 if has_int else 0.0
        meta[FM_HAS_DISC] = 1.0 if has_disc else 0.0
        seq = self.publish(planes, meta, fingerprint, wait_consumed=wait_consumed)
        METRICS.inc("bus.bytes.published", self.slot_bytes)
        return seq

    def read_frame(self, seq: int, copy: bool = True) -> BusFrame:
        """Reconstruct the frame (and prep, if carried) from slot ``seq``."""
        from ..core.sma import Frame  # local: avoid a cycle at import time

        r = self.read(seq, copy=copy)
        cursor = 1
        intensity = None
        if self.has_intensity:
            if r.meta[FM_HAS_INTENSITY] > 0:
                intensity = r.planes[cursor]
            cursor += 1
        frame = Frame(
            surface=r.planes[0],
            intensity=intensity,
            time_seconds=float(r.meta[FM_TIME]),
        )
        preparation = None
        if self.has_prep:
            geo = SurfaceGeometry(
                **{
                    plane: r.planes[cursor + i]
                    for i, plane in enumerate(PREP_PLANES)
                }
            )
            disc = r.planes[cursor + len(PREP_PLANES)]
            preparation = FramePreparation(
                geometry=geo,
                discriminant=disc if r.meta[FM_HAS_DISC] > 0 else None,
                fingerprint=r.fingerprint,
            )
        if not copy and not self.slot_stable(r):
            METRICS.inc("bus.torn_reads")
            raise TornSlot(f"ring {self.name!r} slot {r.slot} rewritten during read")
        return BusFrame(
            seq=seq,
            frame=frame,
            preparation=preparation,
            pixel_km=float(r.meta[FM_PIXEL_KM]),
            fingerprint=r.fingerprint,
        )


# Result meta columns.
RM_DT = 0
RM_PIXEL_KM = 1
RM_HAS_PARAMS = 2
RM_INDEX = 3

#: Motion-parameter planes carried when FLAG_PARAMS is set
#: (``MotionField.params`` has shape (H, W, 6)).
N_PARAM_PLANES = 6


class ResultRing(ShmRing):
    """Ring of dense motion-field outputs flowing workers -> dispatcher."""

    @classmethod
    def create_results(
        cls,
        name: str,
        capacity: int,
        height: int,
        width: int,
        params: bool = True,
    ) -> "ResultRing":
        channels = 4 + (N_PARAM_PLANES if params else 0)
        return cls.create(
            name, capacity, height, width, channels,
            flags=FLAG_PARAMS if params else 0,
        )

    @property
    def has_params(self) -> bool:
        return bool(self.flags & FLAG_PARAMS)

    def publish_field(
        self, index: int, field, wait_consumed: bool = True, timeout: float = 30.0
    ) -> int:
        """Write one pair's :class:`~repro.core.field.MotionField`.

        ``index`` (the pair number, unique per task) doubles as the
        explicit sequence number: result rings have many concurrent
        writers, so slots are pre-assigned instead of cursor-claimed.
        """
        planes = [field.u, field.v, field.error, field.valid.astype(np.float64)]
        has_params = field.params is not None
        if self.has_params:
            if has_params:
                planes.extend(field.params[..., k] for k in range(N_PARAM_PLANES))
            else:
                planes.extend([None] * N_PARAM_PLANES)
        elif has_params:
            raise RingError("ring was created without parameter channels")
        meta = [0.0] * 4
        meta[RM_DT] = float(field.dt_seconds)
        meta[RM_PIXEL_KM] = float(field.pixel_km)
        meta[RM_HAS_PARAMS] = 1.0 if has_params else 0.0
        meta[RM_INDEX] = float(index)
        seq = self.publish(
            planes, meta, wait_consumed=wait_consumed, timeout=timeout, seq=index
        )
        METRICS.inc("bus.bytes.published", self.slot_bytes)
        return seq

    def read_field(self, seq: int, metadata: dict | None = None):
        """Rebuild the :class:`~repro.core.field.MotionField` at ``seq``.

        Always copies: the dispatcher immediately releases the slot via
        :meth:`mark_consumed`, so views would go stale.  Returns
        ``(pair_index, field)``.
        """
        from ..core.field import MotionField

        r = self.read(seq, copy=True)
        params = None
        if self.has_params and r.meta[RM_HAS_PARAMS] > 0:
            params = np.ascontiguousarray(np.moveaxis(r.planes[4 : 4 + N_PARAM_PLANES], 0, -1))
        field = MotionField(
            u=r.planes[0],
            v=r.planes[1],
            valid=r.planes[3] > 0.5,
            error=r.planes[2],
            params=params,
            dt_seconds=float(r.meta[RM_DT]),
            pixel_km=float(r.meta[RM_PIXEL_KM]),
            metadata=dict(metadata or {}),
        )
        return int(r.meta[RM_INDEX]), field

    def publish_planes(
        self,
        index: int,
        u: np.ndarray,
        v: np.ndarray,
        error: np.ndarray,
        wait_consumed: bool = True,
        timeout: float = 30.0,
    ) -> int:
        """Write bare (u, v, error) planes -- the ladder-rung result shape.

        As in :meth:`publish_field`, ``index`` is the explicit sequence
        number so concurrent workers never race the write cursor.
        """
        planes: list = [u, v, error, None]
        if self.has_params:
            planes.extend([None] * N_PARAM_PLANES)
        meta = [0.0] * 4
        meta[RM_INDEX] = float(index)
        seq = self.publish(
            planes, meta, wait_consumed=wait_consumed, timeout=timeout, seq=index
        )
        METRICS.inc("bus.bytes.published", self.slot_bytes)
        return seq

    def read_planes(self, seq: int):
        """Inverse of :meth:`publish_planes`: ``(index, u, v, error)``."""
        r = self.read(seq, copy=True)
        return int(r.meta[RM_INDEX]), r.planes[0], r.planes[1], r.planes[2]


# -- stale-segment GC -------------------------------------------------------------

_SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


def _open_segment(name: str) -> shared_memory.SharedMemory | None:
    """Map an existing segment, or None while it is shorter than a header.

    The creator opens the segment and sizes it in two steps, so an
    opener racing it can find the segment zero-length (``mmap`` refuses
    an empty file with ValueError) or short.  Raises FileNotFoundError
    when no segment has the name.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except ValueError:
        return None
    _unregister(shm)
    if shm.size >= HEADER_WORDS * 8:
        return shm
    shm.close()
    return None


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Ring names currently resident in ``/dev/shm``."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(e[len(prefix):] for e in entries if e.startswith(prefix))


def gc_stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Unlink every ring whose owning process is dead.  Returns the names.

    The sweep is safe to run from any process at any time: a live
    owner's segment is never touched, and racing sweeps at worst both
    try the unlink (the loser's ``FileNotFoundError`` is swallowed).
    """
    removed: list[str] = []
    for name in list_segments(prefix):
        try:
            shm = _open_segment(prefix + name)
        except FileNotFoundError:
            continue
        # Half-initialized segment (too short for a header, or the
        # creator died before stamping the magic): no owner recorded,
        # so reclaim it.
        pid = -1
        if shm is not None:
            try:
                header = np.ndarray((HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
                if int(header[H_MAGIC]) == MAGIC:
                    pid = int(header[H_OWNER_PID])
                del header
            finally:
                shm.close()
        if not _pid_alive(pid):
            try:
                # Unlink by path: a zero-length segment cannot be mapped,
                # and nothing here is registered with the resource tracker.
                os.unlink(os.path.join(_SHM_DIR, prefix + name))
            except FileNotFoundError:
                continue
            removed.append(name)
            METRICS.inc("bus.gc.unlinked")
    return removed
