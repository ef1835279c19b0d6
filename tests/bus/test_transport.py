"""Transport bit-identity: shm rings reproduce the pickle pool exactly."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bus import IngestDaemon, RingFrameSource, SyntheticSource, list_segments
from repro.core.prep import FramePreparationCache, prepare_frame
from repro.core.sma import Frame
from repro.data import hurricane_luis
from repro.parallel.pairs import resolve_transport
from repro.params import SMALL_CONFIG
from repro.reliability import StreamingRunner


def test_resolve_transport_validates():
    assert resolve_transport("pickle") == "pickle"
    assert resolve_transport("shm") == "shm"
    with pytest.raises(ValueError):
        resolve_transport("carrier-pigeon")


def test_resolve_refuses_a_result_slot_of_another_pair():
    """The shm result ring's pair index is checked even under ``python -O``."""
    from repro.parallel.pairs import LadderPool

    class StubResultRing:
        def read_planes(self, seq):
            plane = np.zeros((2, 2))
            return 7, plane, plane, plane

        def mark_consumed(self, seq):
            pass

    class Handle:
        def get(self):
            return 3, ("seq", 0, (0, None, None, 0.0, "")), [], 0.0, None

    pool = LadderPool(SMALL_CONFIG, 5, 1, transport="shm")  # no processes until a submit
    pool._result_ring = StubResultRing()
    with pytest.raises(RuntimeError, match="holds pair 7, expected pair 3"):
        pool.resolve(Handle())


@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_pool_transport_matches_sequential(transport, tmp_path):
    """A pooled serve sequence job equals the unpooled product."""
    from repro.serve.http import ServeApp
    from repro.serve.jobs import JobRequest

    request = JobRequest(
        dataset="luis", size=40, frames=5, seed=3, search=2, template=3,
        kind="sequence",
    )
    products = []
    for pool_workers in (None, 2):
        app = ServeApp(
            str(tmp_path / f"state-{pool_workers}"), workers=0,
            pool_workers=pool_workers, transport=transport,
        )
        try:
            job, _ = app.queue.submit(request)
            app.pool.execute(app.queue.claim(timeout=0))
            products.append(app.cache.get(app.queue.get(job.id).result_key, record=False))
        finally:
            app.queue.close()
    sequential, pooled = products
    for attr in ("u", "v", "error", "valid"):
        assert getattr(pooled, attr).tobytes() == getattr(sequential, attr).tobytes()
    assert pooled.dt_seconds == sequential.dt_seconds
    assert pooled.metadata == sequential.metadata
    assert list_segments() == []  # the pool's rings are torn down with it


@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_streaming_semifluid_stereo_matches_sequential(transport):
    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 40, 40)).cumsum(axis=1).cumsum(axis=2)
    intens = rng.normal(size=(3, 40, 40)).cumsum(axis=2)
    frames = [
        Frame(surface=base[i], intensity=intens[i], time_seconds=60.0 * i)
        for i in range(3)
    ]
    sequential = StreamingRunner(SMALL_CONFIG).run(frames)
    pooled = StreamingRunner(SMALL_CONFIG, workers=2, transport=transport).run(frames)
    assert pooled.field.metadata["model"] == "semi-fluid"
    for attr in ("u", "v", "error", "valid"):
        assert (
            getattr(pooled.field, attr).tobytes()
            == getattr(sequential.field, attr).tobytes()
        )
    assert pooled.ledger.snapshot() == sequential.ledger.snapshot()
    assert list_segments() == []


@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_streaming_pool_transport_matches_sequential(transport, tmp_path):
    ds = hurricane_luis(size=40, n_frames=5, seed=3)
    config = ds.config.replace(n_zs=2, n_zt=3)
    seq_runner = StreamingRunner(config, pixel_km=ds.pixel_km)
    seq_result = seq_runner.run(ds.frames)
    pool_runner = StreamingRunner(
        config, pixel_km=ds.pixel_km, workers=2, transport=transport
    )
    pool_result = pool_runner.run(ds.frames)
    for attr in ("u", "v", "error", "valid"):
        np.testing.assert_array_equal(
            getattr(pool_result.field, attr), getattr(seq_result.field, attr)
        )
    assert pool_result.field.dt_seconds == seq_result.field.dt_seconds
    assert list_segments() == []


def test_run_live_matches_batch_run(ring_name):
    """The full live path: daemon -> ring -> run_live == batch run()."""
    src = SyntheticSource(dataset="luis", size=40, n_frames=5, seed=3)
    config = src.config.replace(n_zs=2, n_zt=3)
    daemon = IngestDaemon(ring_name, src, capacity=16, linger_seconds=10.0)
    thread = threading.Thread(target=daemon.run)
    thread.start()
    try:
        runner = StreamingRunner(config, pixel_km=src.pixel_km)
        with RingFrameSource(ring_name, attach_timeout=10.0) as source:
            live = runner.run_live(source)
        assert live.completed and live.pairs_done == 4
        assert source.missed == 0
    finally:
        daemon.stop()
        thread.join(timeout=30)

    batch_frames = [frame for _, frame in SyntheticSource(
        dataset="luis", size=40, n_frames=5, seed=3).frames()]
    batch = StreamingRunner(config, pixel_km=src.pixel_km).run(batch_frames)
    for attr in ("u", "v", "error", "valid"):
        np.testing.assert_array_equal(
            getattr(live.field, attr), getattr(batch.field, attr)
        )
    assert live.field.dt_seconds == batch.field.dt_seconds
    assert live.field.metadata["source"] == f"ring://{ring_name}"
    assert ring_name not in list_segments()


def test_run_live_refuses_fault_injection_and_workers():
    from repro.reliability import FaultPlan

    with pytest.raises(ValueError, match="fault injection"):
        StreamingRunner(
            SMALL_CONFIG, fault_plan=FaultPlan(seed=0, pe_memory_faults=(0,))
        ).run_live(None)
    with pytest.raises(ValueError, match="sequential"):
        StreamingRunner(SMALL_CONFIG, workers=4).run_live(None)


def test_prep_cache_seed_hits_without_refit(tiny_frames):
    frame = tiny_frames[0]
    prep = prepare_frame(frame.surface, None, SMALL_CONFIG)
    cache = FramePreparationCache(max_frames=4)
    cache.seed(prep)
    before = cache.stats.misses
    out = cache.get(frame.surface, None, SMALL_CONFIG)
    assert out is prep  # the seeded object itself -- zero refit work
    assert cache.stats.misses == before
    assert cache.stats.hits == 1


def test_checkpoint_fingerprint_ignores_transport():
    """A checkpoint written under one transport resumes under the other
    (bit-identical results make the transport a non-identity detail)."""
    ds = hurricane_luis(size=40, n_frames=4, seed=3)
    config = ds.config.replace(n_zs=2, n_zt=3)
    a = StreamingRunner(config, workers=2, transport="pickle")
    b = StreamingRunner(config, workers=2, transport="shm")
    shape = ds.frames[0].shape
    assert a._fingerprint(shape, 3) == b._fingerprint(shape, 3)
