"""Owner-death cleanup: SIGKILLed processes must not leak /dev/shm segments."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np

from repro.bus import FrameRing, gc_stale_segments, list_segments
from repro.bus.layout import H_MAGIC, HEADER_WORDS, SEGMENT_PREFIX


def _spawn_publisher(ring_name: str) -> subprocess.Popen:
    """A child process that creates a ring, publishes one frame, then spins."""
    code = textwrap.dedent(
        f"""
        import time
        import numpy as np
        from repro.bus import FrameRing
        from repro.core.prep import prepare_frame
        from repro.core.sma import Frame
        from repro.params import SMALL_CONFIG

        frame = Frame(surface=np.arange(576, dtype=float).reshape(24, 24))
        prep = prepare_frame(frame.surface, None, SMALL_CONFIG)
        ring = FrameRing.create_frames({ring_name!r}, capacity=2, height=24, width=24)
        ring.publish_frame(frame, preparation=prep)
        print("ready", flush=True)
        time.sleep(60)
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, text=True
    )
    assert proc.stdout.readline().strip() == "ready"
    return proc


def test_sigkilled_publisher_segment_is_gced(ring_name):
    proc = _spawn_publisher(ring_name)
    try:
        assert ring_name in list_segments()
        proc.kill()  # SIGKILL: no atexit, no finalizers, segment left behind
        proc.wait(timeout=10)  # reaped -> owner_pid is provably dead
        assert ring_name in list_segments(), "SIGKILL must leave the segment"
        assert ring_name in gc_stale_segments()
        assert ring_name not in list_segments()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_gc_spares_live_owner(ring_name):
    proc = _spawn_publisher(ring_name)
    try:
        assert ring_name in list_segments()
        removed = gc_stale_segments()
        assert ring_name not in removed
        assert ring_name in list_segments()
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        gc_stale_segments()
    assert ring_name not in list_segments()


def test_gc_reclaims_half_initialized_segment(ring_name):
    """A creator that died before stamping the magic leaves no owner; GC it."""
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(
        name=SEGMENT_PREFIX + ring_name, create=True, size=HEADER_WORDS * 8
    )
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    header = np.ndarray((HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
    header[:] = 0
    assert int(header[H_MAGIC]) == 0
    del header
    shm.close()
    assert ring_name in gc_stale_segments()
    assert ring_name not in list_segments()


def test_gc_reclaims_zero_length_segment(ring_name):
    """A creator that died between shm_open and ftruncate leaves a
    zero-length segment; GC applies the no-magic rule instead of raising."""
    path = os.path.join("/dev/shm", SEGMENT_PREFIX + ring_name)
    open(path, "wb").close()
    assert ring_name in list_segments()
    assert ring_name in gc_stale_segments()
    assert ring_name not in list_segments()


def test_sigkilled_consumer_leaves_publisher_segment_alone(ring_name):
    """A dying reader must never unlink the publisher's ring (tracker
    deregistration at attach time)."""
    ring = FrameRing.create_frames(ring_name, capacity=2, height=24, width=24)
    try:
        code = textwrap.dedent(
            f"""
            from repro.bus import FrameRing
            ring = FrameRing.attach({ring_name!r})
            ring.close()
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        # The reader exited (tracker included); the segment must survive.
        assert ring_name in list_segments()
    finally:
        ring.unlink()
        ring.close()
    assert ring_name not in list_segments()
