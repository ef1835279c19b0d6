"""Seqlock ring protocol: round-trips, torn slots, laps, lifecycle races."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bus import (
    FrameRing,
    ResultRing,
    RingError,
    RingNotFound,
    ShmRing,
    SlotMissed,
    TornSlot,
    list_segments,
)
from repro.core.field import MotionField
from repro.core.prep import prepare_frame
from repro.params import SMALL_CONFIG


def test_frame_ring_round_trip_is_exact(ring_name, tiny_frames):
    frame = tiny_frames[0]
    prep = prepare_frame(frame.surface, None, SMALL_CONFIG)
    ring = FrameRing.create_frames(ring_name, capacity=4, height=24, width=24)
    try:
        seq = ring.publish_frame(frame, preparation=prep, pixel_km=2.5)
        out = ring.read_frame(seq)
        assert out.seq == seq
        assert out.pixel_km == 2.5
        assert out.fingerprint == prep.fingerprint
        np.testing.assert_array_equal(out.frame.surface, frame.surface)
        assert out.frame.time_seconds == frame.time_seconds
        geo_in, geo_out = prep.geometry, out.preparation.geometry
        for plane in ("p", "q", "normal_i", "normal_j", "normal_k", "e", "g",
                      "discriminant"):
            np.testing.assert_array_equal(
                getattr(geo_out, plane), getattr(geo_in, plane)
            )
        np.testing.assert_array_equal(out.preparation.discriminant, prep.discriminant)
    finally:
        ring.unlink()
        ring.close()


def test_result_ring_round_trip_is_exact(ring_name):
    rng = np.random.default_rng(3)
    h, w = 20, 22
    field = MotionField(
        u=rng.normal(size=(h, w)),
        v=rng.normal(size=(h, w)),
        valid=rng.random((h, w)) > 0.3,
        error=rng.random((h, w)),
        params=rng.normal(size=(h, w, 6)),
        dt_seconds=90.0,
        pixel_km=4.0,
    )
    ring = ResultRing.create_results(ring_name, capacity=2, height=h, width=w)
    try:
        seq = ring.publish_field(17, field)
        index, out = ring.read_field(seq, metadata={"k": "v"})
        assert index == 17
        assert out.dt_seconds == 90.0 and out.pixel_km == 4.0
        assert out.metadata == {"k": "v"}
        for attr in ("u", "v", "error", "valid", "params"):
            np.testing.assert_array_equal(getattr(out, attr), getattr(field, attr))
    finally:
        ring.unlink()
        ring.close()


def test_torn_slot_detected_via_generation_counter(ring_name, tiny_frames):
    """An odd generation (a crashed or mid-write publisher) raises TornSlot."""
    prep = prepare_frame(tiny_frames[0].surface, None, SMALL_CONFIG)
    ring = FrameRing.create_frames(ring_name, capacity=4, height=24, width=24)
    try:
        seq = ring.publish_frame(tiny_frames[0], preparation=prep)
        # Simulate a publisher that died mid-write: generation left odd.
        ring._generation[seq % ring.capacity] += 1
        with pytest.raises(TornSlot):
            ring.read_frame(seq)
        # Recovery: the next write of that slot lands even again.
        ring._generation[seq % ring.capacity] += 1
        assert ring.read_frame(seq).seq == seq
    finally:
        ring.unlink()
        ring.close()


def test_rewrite_during_zero_copy_read_is_detected(ring_name, tiny_frames):
    """copy=False re-checks the generation after rebuilding the frame."""
    prep = prepare_frame(tiny_frames[0].surface, None, SMALL_CONFIG)
    ring = FrameRing.create_frames(ring_name, capacity=1, height=24, width=24)
    try:
        seq = ring.publish_frame(tiny_frames[0], preparation=prep)
        read = ring.read(seq, copy=False)
        assert ring.slot_stable(read)
        ring._generation[0] += 2  # a full rewrite landed underneath
        assert not ring.slot_stable(read)
    finally:
        ring.unlink()
        ring.close()


def test_lapped_reader_gets_slot_missed(ring_name, tiny_frames):
    """A reader attaching (or stalling) mid-rotation skips to what's resident."""
    prep = prepare_frame(tiny_frames[0].surface, None, SMALL_CONFIG)
    ring = FrameRing.create_frames(ring_name, capacity=2, height=24, width=24)
    try:
        for frame in tiny_frames:  # 4 frames through a 2-slot ring
            ring.publish_frame(frame, preparation=prep)
        with pytest.raises(SlotMissed):
            ring.read_frame(0)  # overwritten by seq 2
        assert ring.read_frame(2).seq == 2
        assert ring.read_frame(3).seq == 3
        with pytest.raises(SlotMissed):
            ring.read_frame(4)  # not yet written
    finally:
        ring.unlink()
        ring.close()


def test_attach_mid_rotation_sees_consistent_sequence(ring_name, tiny_frames):
    prep = prepare_frame(tiny_frames[0].surface, None, SMALL_CONFIG)
    ring = FrameRing.create_frames(ring_name, capacity=2, height=24, width=24)
    try:
        for frame in tiny_frames[:3]:
            ring.publish_frame(frame, preparation=prep)
        reader = FrameRing.attach(ring_name)
        oldest = max(0, reader.write_cursor - reader.capacity)
        assert oldest == 1
        seqs = [reader.read_frame(s).seq for s in range(oldest, reader.write_cursor)]
        assert seqs == [1, 2]
        reader.close()
    finally:
        ring.unlink()
        ring.close()


def test_unlink_racing_late_attach(ring_name, tiny_frames):
    """An attach after unlink raises RingNotFound; a second unlink is benign."""
    ring = FrameRing.create_frames(ring_name, capacity=2, height=24, width=24)
    ring.unlink()
    with pytest.raises(RingNotFound):
        FrameRing.attach(ring_name)
    ring.unlink()  # idempotent: the race loser must not crash
    ring.close()
    assert ring_name not in list_segments()


def test_attach_waits_for_creation(ring_name, tiny_frames):
    """attach(timeout=0) on a missing name fails immediately."""
    with pytest.raises(RingNotFound):
        FrameRing.attach(ring_name, timeout=0.0)


def _sized_segment(name: str, size: int) -> str:
    """A raw ``/dev/shm`` segment of ``size`` bytes: a creator caught
    between ``shm_open`` and ``ftruncate`` (size 0) or mid-resize."""
    import os

    from repro.bus.layout import SEGMENT_PREFIX

    path = os.path.join("/dev/shm", SEGMENT_PREFIX + name)
    with open(path, "wb") as fh:
        fh.truncate(size)
    return path


@pytest.mark.parametrize("size", [0, 16])
def test_attach_short_segment_is_not_ready_yet(ring_name, size):
    """A zero-length or short segment is a header that is not valid yet:
    attach(timeout=0) reports a RingError instead of crashing in mmap."""
    _sized_segment(ring_name, size)
    with pytest.raises(RingError, match="shorter than a ring header"):
        FrameRing.attach(ring_name, timeout=0.0)


def test_attach_retries_zero_length_segment_until_created(ring_name, monkeypatch):
    """The retry loop keeps polling a zero-length segment; once the
    creator finishes, the attach succeeds.  The poll's sleep stands in
    for the creator's progress, so the race replays deterministically."""
    import os

    import repro.bus.ring as ring_module

    path = _sized_segment(ring_name, 0)
    created = []

    def creator_finishes(_seconds):
        if not created:
            os.unlink(path)
            created.append(FrameRing.create_frames(ring_name, capacity=2, height=8, width=8))

    monkeypatch.setattr(ring_module.time, "sleep", creator_finishes)
    reader = FrameRing.attach(ring_name, timeout=60.0)
    try:
        assert created, "attach never retried the zero-length segment"
        assert (reader.capacity, reader.height, reader.width) == (2, 8, 8)
    finally:
        reader.close()
        created[0].unlink()
        created[0].close()


def test_create_refuses_duplicate_name(ring_name):
    ring = FrameRing.create_frames(ring_name, capacity=1, height=8, width=8)
    try:
        with pytest.raises(RingError):
            FrameRing.create_frames(ring_name, capacity=1, height=8, width=8)
    finally:
        ring.unlink()
        ring.close()


def test_consumed_handshake_backpressures_writer(ring_name):
    ring = ResultRing.create_results(
        ring_name, capacity=1, height=4, width=4, params=False
    )
    try:
        zeros = np.zeros((4, 4))
        ring.publish_planes(0, zeros, zeros, zeros)
        with pytest.raises(RingError, match="not consumed"):
            ring.publish_planes(1, zeros, zeros, zeros, wait_consumed=True, timeout=0.2)
        ring.mark_consumed(0)
        assert ring.publish_planes(1, zeros, zeros, zeros, wait_consumed=True) == 1
    finally:
        ring.unlink()
        ring.close()


def test_concurrent_result_publishers_never_collide(ring_name):
    """Explicit-seq publishing: N threads hammer one ring without torn slots.

    Result rings have many writers (pool workers).  Because each writer
    owns slot ``index % capacity`` outright -- rather than claiming the
    shared write cursor -- simultaneous publishes of distinct indices
    can never interleave on one slot.
    """
    import threading

    n_indices, cap = 48, 8
    ring = ResultRing.create_results(
        ring_name, capacity=cap, height=6, width=6, params=False
    )
    consumers = [ResultRing.attach(ring_name) for _ in range(3)]
    errors: list = []

    def worker(idx: int, reader: ResultRing) -> None:
        try:
            fill = float(idx)
            plane = np.full((6, 6), fill)
            ring.publish_planes(idx, plane, plane + 1, plane + 2, timeout=30.0)
            got_index, u, v, error = reader.read_planes(idx)
            assert got_index == idx
            np.testing.assert_array_equal(u, plane)
            np.testing.assert_array_equal(v, plane + 1)
            np.testing.assert_array_equal(error, plane + 2)
            reader.mark_consumed(idx)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append((idx, exc))

    try:
        for wave_start in range(0, n_indices, cap):
            threads = [
                threading.Thread(target=worker, args=(i, consumers[i % 3]))
                for i in range(wave_start, wave_start + cap)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
    finally:
        for c in consumers:
            c.close()
        ring.unlink()
        ring.close()


def test_occupancy_tracks_unconsumed_slots(ring_name):
    ring = ResultRing.create_results(
        ring_name, capacity=4, height=4, width=4, params=False
    )
    try:
        zeros = np.zeros((4, 4))
        assert ring.occupancy() == 0
        ring.publish_planes(0, zeros, zeros, zeros, wait_consumed=False)
        ring.publish_planes(1, zeros, zeros, zeros, wait_consumed=False)
        assert ring.occupancy() == 2
        ring.mark_consumed(0)
        assert ring.occupancy() == 1
    finally:
        ring.unlink()
        ring.close()


def test_mark_closed_is_visible_to_attached_readers(ring_name):
    ring = ShmRing.create(ring_name, capacity=1, height=4, width=4, channels=1)
    reader = ShmRing.attach(ring_name)
    try:
        assert not reader.closed
        ring.mark_closed()
        assert reader.closed
    finally:
        reader.close()
        ring.unlink()
        ring.close()
