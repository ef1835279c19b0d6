"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _circular_mean_deg, main
from repro.core.field import MotionField


class TestTrack:
    def test_florida_track(self, capsys):
        rc = main(["track", "florida", "--size", "64", "--search", "2", "--template", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "goes9-florida" in out
        assert "RMSE vs truth" in out

    def test_save_and_winds_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "field.npz")
        rc = main([
            "track", "luis", "--size", "64", "--search", "2", "--template", "3",
            "--out", path,
        ])
        assert rc == 0
        rc = main(["winds", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean speed" in out

    def test_frederic_semifluid(self, capsys):
        rc = main(["track", "frederic", "--size", "64", "--search", "2", "--template", "3"])
        assert rc == 0
        assert "semi-fluid" in capsys.readouterr().out


class TestWinds:
    def test_missing_file(self, capsys):
        rc = main(["winds", "/nonexistent/field.npz"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_percentiles(self, tmp_path, capsys):
        h = w = 16
        field = MotionField(
            u=np.ones((h, w)),
            v=np.zeros((h, w)),
            valid=np.ones((h, w), bool),
            error=np.zeros((h, w)),
            dt_seconds=60.0,
        )
        path = str(tmp_path / "f.npz")
        field.save(path)
        rc = main(["winds", path, "--percentiles", "abc"])
        assert rc == 2

    def test_circular_mean(self):
        # directions straddling north: 350 and 10 average to north
        # (0/360), never to 180
        d = _circular_mean_deg(np.array([350.0, 10.0]))
        assert min(d, 360.0 - d) < 1e-6


class TestMachine:
    def test_machine_summary(self, capsys):
        rc = main(["machine"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "128 x 128 = 16384" in out
        assert "18x" in out

    def test_machine_tables(self, capsys):
        rc = main(["machine", "--tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2 model" in out
        assert "Hypothesis matching" in out
        assert "paper: 1025x" in out


class TestDatasets:
    def test_listing(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hurricane-frederic" in out
        assert "490 frames" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestServeCommand:
    def test_serve_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for option in (
            "--port", "--workers", "--queue-depth", "--cache-bytes", "--state-dir",
            "--lease-seconds", "--max-attempts", "--job-timeout", "--retry-backoff",
            "--chaos", "--chaos-seed",
        ):
            assert option in out
        # the help text warns that serve mode refuses fault injection
        assert "fault injection" in out

    def test_serve_listed_in_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "serve" in capsys.readouterr().out


class TestServeAdminCommand:
    """Offline (--state-dir) transport of the dead-letter console."""

    def _state_dir_with_dead_job(self, tmp_path):
        import os

        from repro.serve import JobQueue
        from repro.serve.jobs import JobRequest

        state_dir = str(tmp_path / "serve-state")
        os.makedirs(state_dir)
        queue = JobQueue(
            max_depth=8, state_path=os.path.join(state_dir, "queue.json")
        )
        job, _ = queue.submit(JobRequest(dataset="florida", size=48))
        queue.claim(timeout=0)
        queue.fail(job.id, "poison pill", retryable=False)
        queue.save()
        queue.close()
        return state_dir, job.id

    def test_dead_listing(self, tmp_path, capsys):
        state_dir, job_id = self._state_dir_with_dead_job(tmp_path)
        assert main(["serve-admin", "dead", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "poison pill" in out

    def test_requeue_round_trip(self, tmp_path, capsys):
        from repro.serve import JobQueue

        state_dir, job_id = self._state_dir_with_dead_job(tmp_path)
        assert main(["serve-admin", "requeue", job_id, "--state-dir", state_dir]) == 0
        assert f"requeued {job_id}" in capsys.readouterr().out
        # The revival was flushed to disk: a fresh open sees it pending.
        import os

        reopened = JobQueue(
            max_depth=8, state_path=os.path.join(state_dir, "queue.json")
        )
        assert reopened.get(job_id).state == "pending"
        assert reopened.get(job_id).attempts == 0

        assert main(["serve-admin", "dead", "--state-dir", state_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_requeue_unknown_job_fails_cleanly(self, tmp_path, capsys):
        state_dir, _ = self._state_dir_with_dead_job(tmp_path)
        rc = main(["serve-admin", "requeue", "job-999999", "--state-dir", state_dir])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_transport_is_exactly_one_of_url_or_state_dir(self, tmp_path, capsys):
        assert main(["serve-admin", "dead"]) == 2
        assert "exactly one" in capsys.readouterr().err
        rc = main([
            "serve-admin", "dead",
            "--url", "http://localhost:1", "--state-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_requeue_needs_a_job_id(self, tmp_path, capsys):
        state_dir, _ = self._state_dir_with_dead_job(tmp_path)
        assert main(["serve-admin", "requeue", "--state-dir", state_dir]) == 2
        assert "job id" in capsys.readouterr().err


class TestBackendFlag:
    def test_track_with_pinned_numpy_backend(self, capsys):
        rc = main([
            "track", "florida", "--size", "64", "--search", "2", "--template", "3",
            "--backend", "numpy",
        ])
        assert rc == 0
        assert "RMSE vs truth" in capsys.readouterr().out

    def test_serve_refuses_unknown_backend(self, capsys):
        # the parser keeps names outside KERNEL_BACKENDS out of serve
        with pytest.raises(SystemExit):
            main(["serve", "--backend", "gpu", "--workers", "0"])
        assert "invalid choice: 'gpu'" in capsys.readouterr().err


class TestSubpixelFlag:
    def test_track_with_subpixel(self, capsys):
        rc = main([
            "track", "florida", "--size", "64", "--search", "2", "--template", "3",
            "--subpixel",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RMSE vs truth" in out

    def test_subpixel_improves_rmse(self, capsys):
        import re

        def rmse_of(args):
            assert main(args) == 0
            out = capsys.readouterr().out
            return float(re.search(r"RMSE vs truth\s+([0-9.]+)", out).group(1))

        base = ["track", "florida", "--size", "64", "--search", "2", "--template", "3"]
        assert rmse_of(base + ["--subpixel"]) <= rmse_of(base)


class TestStream:
    def test_clean_stream(self, capsys):
        rc = main(["stream", "luis", "--size", "64", "--frames", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "pairs via sma" in out

    def test_stream_with_faults_and_report(self, tmp_path, capsys):
        import json

        report = str(tmp_path / "report.json")
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "6",
            "--inject-faults", "read:2,mem:1", "--report", report,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault log" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        kinds = {e["kind"] for e in payload["events"]}
        assert "disk-read-error" in kinds
        assert "pe-memory" in kinds

    def test_stream_checkpoint_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        out_field = str(tmp_path / "field.npz")
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "6",
            "--checkpoint", ck, "--stop-after", "2",
        ])
        assert rc == 0
        assert "stopped after 2/5 pairs" in capsys.readouterr().out
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "6",
            "--checkpoint", ck, "--resume", "--out", out_field,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert any(
            line.startswith("resumed from checkpoint") and "yes" in line
            for line in out.splitlines()
        )
        loaded = MotionField.load(out_field)
        assert loaded.metadata["pairs"] == 5

    def test_bad_fault_spec(self, capsys):
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "4",
            "--inject-faults", "corrupt:1:gamma-ray",
        ])
        assert rc == 2
        assert "corruption mode" in capsys.readouterr().err

    def test_random_fault_spec_parses(self):
        from repro.cli import _parse_fault_spec

        plan = _parse_fault_spec("random:0.5", seed=3, n_frames=30)
        assert plan == _parse_fault_spec("random:0.5", seed=3, n_frames=30)
        assert not plan.is_empty

    def test_full_spec_parses(self):
        from repro.cli import _parse_fault_spec

        plan = _parse_fault_spec(
            "corrupt:7:nan-speckle,read:3,write:2:2,mem:10,deadrows:12:2",
            seed=0, n_frames=20,
        )
        assert plan.corrupt_frames == {7: "nan-speckle"}
        assert plan.read_failures == {3: 1}
        assert plan.write_failures == {2: 2}
        assert plan.pe_memory_faults == (10,)
        assert plan.dead_pe_rows == {12: 2}
