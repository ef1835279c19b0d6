"""End-to-end streaming: determinism, resume bit-identity, acceptance run."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.data import hurricane_luis
from repro.reliability import (
    PHASE_STREAMING,
    FaultPlan,
    StreamingRunner,
    StreamResult,
)
from repro.reliability.retry import PHASE_RECOVERY


@pytest.fixture(scope="module")
def luis8():
    return hurricane_luis(size=64, n_frames=8)


@pytest.fixture(scope="module")
def config(luis8):
    return luis8.config.replace(n_zs=2, n_zt=3)


@pytest.fixture(scope="module")
def fault_plan():
    return FaultPlan(
        seed=7,
        corrupt_frames={3: "nan-speckle"},
        read_failures={5: 1},
        pe_memory_faults=(1,),
        dead_pe_rows={6: 40},
    )


def run_stream(config, frames, **kwargs) -> StreamResult:
    return StreamingRunner(config, **kwargs).run(frames)


class TestCleanRun:
    @pytest.fixture(scope="class")
    def result(self, config, luis8):
        return run_stream(config, luis8.frames)

    def test_completes_all_pairs(self, result, luis8):
        assert result.completed
        assert result.pairs_done == result.n_pairs == len(luis8.frames) - 1

    def test_all_pairs_full_sma(self, result):
        assert set(result.report.method_counts) == {"sma"}
        assert not result.report.degraded_pairs
        assert not result.report.events

    def test_field_is_time_mean(self, result):
        assert result.field is not None
        assert result.field.metadata["pairs"] == result.n_pairs
        assert np.isfinite(result.field.u).all()

    def test_ledger_has_streaming_phase(self, result):
        assert PHASE_STREAMING in dict(result.ledger.breakdown())


class TestSeededDeterminism:
    def test_same_plan_same_everything(self, config, luis8, fault_plan):
        a = run_stream(config, luis8.frames, fault_plan=fault_plan)
        b = run_stream(config, luis8.frames, fault_plan=fault_plan)
        np.testing.assert_array_equal(a.field.u, b.field.u)
        np.testing.assert_array_equal(a.field.v, b.field.v)
        assert a.report.to_json() == b.report.to_json()
        assert a.ledger.snapshot() == b.ledger.snapshot()

    def test_different_seed_different_corruption(self, config, luis8):
        plan_a = FaultPlan(seed=1, corrupt_frames={3: "bit-noise"})
        plan_b = FaultPlan(seed=2, corrupt_frames={3: "bit-noise"})
        a = run_stream(config, luis8.frames, fault_plan=plan_a)
        b = run_stream(config, luis8.frames, fault_plan=plan_b)
        assert a.completed and b.completed
        # same schedule, different seeds: the injected garbage differs
        assert a.report.fault_counts == b.report.fault_counts


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, config, luis8, fault_plan, tmp_path):
        """Kill after k pairs, resume: same field, ledger and report."""
        uninterrupted = run_stream(config, luis8.frames, fault_plan=fault_plan)

        ck = str(tmp_path / "ck.npz")
        partial = StreamingRunner(
            config, fault_plan=fault_plan, checkpoint_path=ck
        ).run(luis8.frames, stop_after=3)
        assert not partial.completed and partial.pairs_done == 3

        resumed = StreamingRunner(
            config, fault_plan=fault_plan, checkpoint_path=ck
        ).run(luis8.frames, resume=True)
        assert resumed.completed and resumed.resumed

        np.testing.assert_array_equal(uninterrupted.field.u, resumed.field.u)
        np.testing.assert_array_equal(uninterrupted.field.v, resumed.field.v)
        np.testing.assert_array_equal(uninterrupted.field.error, resumed.field.error)
        assert uninterrupted.ledger.snapshot() == resumed.ledger.snapshot()
        assert uninterrupted.report.to_json() == resumed.report.to_json()

    def test_resume_without_checkpoint_starts_fresh(self, config, luis8, tmp_path):
        ck = str(tmp_path / "never-written.npz")
        result = StreamingRunner(config, checkpoint_path=ck).run(
            luis8.frames, resume=True
        )
        assert result.completed and not result.resumed

    def test_mismatched_fingerprint_refuses_to_resume(self, config, luis8, tmp_path):
        """A checkpoint from a different run must not be silently blended in."""
        from repro.reliability import CheckpointError

        ck = str(tmp_path / "ck.npz")
        StreamingRunner(config, checkpoint_path=ck).run(luis8.frames, stop_after=2)
        other = config.replace(n_zs=3)
        with pytest.raises(CheckpointError, match="does not match"):
            StreamingRunner(other, checkpoint_path=ck).run(luis8.frames, resume=True)

    def test_resume_in_two_hops(self, config, luis8, fault_plan, tmp_path):
        uninterrupted = run_stream(config, luis8.frames, fault_plan=fault_plan)
        ck = str(tmp_path / "ck.npz")
        runner = lambda: StreamingRunner(  # noqa: E731
            config, fault_plan=fault_plan, checkpoint_path=ck
        )
        runner().run(luis8.frames, stop_after=2)
        runner().run(luis8.frames, resume=True, stop_after=3)
        final = runner().run(luis8.frames, resume=True)
        assert final.completed
        np.testing.assert_array_equal(uninterrupted.field.u, final.field.u)
        assert uninterrupted.report.to_json() == final.report.to_json()


class TestResumeMidWave:
    """A checkpoint taken inside a pool wave resumes bit-identically,
    whatever the wave size on either side of the resume boundary."""

    @pytest.fixture(scope="class")
    def luis7(self):
        return hurricane_luis(size=48, n_frames=7)

    @pytest.fixture(scope="class")
    def config7(self, luis7):
        return luis7.config.replace(n_zs=2, n_zt=3)

    @pytest.fixture(scope="class")
    def uninterrupted(self, config7, luis7):
        return run_stream(config7, luis7.frames)

    @pytest.mark.parametrize("first_workers", [None, 2], ids=["sequential", "pooled"])
    def test_pooled_resume_after_three_pairs(
        self, first_workers, config7, luis7, uninterrupted, tmp_path
    ):
        ck = str(tmp_path / "ck.npz")
        partial = StreamingRunner(
            config7, checkpoint_path=ck, workers=first_workers
        ).run(luis7.frames, stop_after=3)
        assert partial.pairs_done == 3 and not partial.completed

        resumed = StreamingRunner(config7, checkpoint_path=ck, workers=2).run(
            luis7.frames, resume=True
        )
        assert resumed.resumed and resumed.completed
        for key in ("u", "v", "error"):
            assert (
                getattr(resumed.field, key).tobytes()
                == getattr(uninterrupted.field, key).tobytes()
            )
        assert resumed.ledger.snapshot() == uninterrupted.ledger.snapshot()
        assert resumed.report.to_json() == uninterrupted.report.to_json()


class TestFrameTimestamps:
    """Timestamps that do not increase follow ``core.sma.pair_dt``: a
    RuntimeWarning and a recorded substitution, never a silent 1 s."""

    @pytest.fixture(scope="class")
    def frames(self):
        luis = hurricane_luis(size=32, n_frames=3)
        return [dataclasses.replace(f, time_seconds=0.0) for f in luis.frames]

    def test_equal_timestamps_raise_under_warnings_as_errors(self, config, frames):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # python -W error
            with pytest.raises(RuntimeWarning, match="not increasing"):
                run_stream(config, frames)

    def test_equal_timestamps_are_recorded_in_the_field(self, config, frames):
        with pytest.warns(RuntimeWarning, match="not increasing") as caught:
            result = StreamingRunner(config).run(frames)
        assert caught[0].filename == __file__  # the warning names the caller's line
        metadata = result.field.metadata
        assert result.field.dt_seconds == 1.0
        assert metadata["dt_substituted"] is True
        assert metadata["dt_rejected_seconds"] == [0.0, 0.0]

    def test_increasing_timestamps_record_nothing(self, config, frames):
        timed = [dataclasses.replace(f, time_seconds=90.0 * k) for k, f in enumerate(frames)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_stream(config, timed)
        assert result.field.dt_seconds == 90.0
        assert "dt_substituted" not in result.field.metadata


class TestAcceptanceScenario:
    """The ISSUE's acceptance run: 20 Luis frames, one corrupted frame,
    one failed disk read, one forced PEMemoryError -- completes end to
    end with every fault and recovery on the record."""

    @pytest.fixture(scope="class")
    def result(self):
        dataset = hurricane_luis(size=64, n_frames=20)
        config = dataset.config.replace(n_zs=2, n_zt=3)
        plan = FaultPlan(
            seed=11,
            corrupt_frames={9: "nan-speckle"},
            read_failures={14: 1},
            pe_memory_faults=(4,),
        )
        return StreamingRunner(config, fault_plan=plan).run(dataset.frames)

    def test_completes(self, result):
        assert result.completed
        assert result.pairs_done == 19
        assert result.field is not None

    def test_every_fault_recorded(self, result):
        counts = result.report.fault_counts
        assert counts["corrupt-frame"] > 0
        assert counts["disk-read-error"] == 1
        assert counts["pe-memory"] == 1

    def test_recoveries_recorded(self, result):
        actions = {e.action for e in result.report.events}
        # transient read retried and recovered; memory squeeze re-planned;
        # the corrupted frame's pairs fell back to interpolation
        assert "recovered" in actions
        assert "sma-replanned" in actions
        assert "interpolated" in actions

    def test_degradation_is_surgical(self, result):
        """Only the pairs touching faults degrade; the rest run full SMA."""
        degraded = set(result.report.degraded_pairs)
        assert degraded == {4, 8, 9}
        assert result.report.method_counts["sma"] == 19 - len(degraded)

    def test_retry_backoff_charged_to_ledger(self, result):
        assert PHASE_RECOVERY in dict(result.ledger.breakdown())
        assert result.ledger.phase_seconds(PHASE_RECOVERY) > 0
