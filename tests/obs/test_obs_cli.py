"""CLI round-trips for ``repro profile`` and the ``--trace``/``--metrics`` flags."""

import json

import pytest

from repro.cli import main
from repro.obs import METRICS, TRACER, enable_tracing
from repro.obs.export import load_chrome_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Observability state is process-global; scrub it around every test."""
    enable_tracing(False)
    TRACER.reset()
    METRICS.reset()
    yield
    enable_tracing(False)
    TRACER.reset()
    METRICS.reset()


class TestProfile:
    def test_profile_prints_modeled_and_measured(self, capsys):
        rc = main(["profile", "florida", "--size", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled s" in out and "measured s" in out
        assert "Hypothesis matching" in out
        assert "Total" in out
        assert "spans" in out  # the per-span aggregate table

    def test_profile_exports_trace_and_metrics(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        rc = main([
            "profile", "florida", "--size", "64",
            "--trace", trace, "--metrics", metrics,
        ])
        assert rc == 0
        payload = load_chrome_trace(trace)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "hypothesis_search" in names
        snap = json.loads(open(metrics).read())
        assert set(snap) == {"counters", "gauges", "histograms"}


class TestTrackTrace:
    def test_track_trace_is_valid_and_nested(self, tmp_path, capsys):
        trace = str(tmp_path / "out.json")
        rc = main([
            "track", "florida", "--size", "64", "--search", "2",
            "--template", "3", "--trace", trace,
        ])
        assert rc == 0
        payload = load_chrome_trace(trace)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"hypothesis_search", "surface_fit", "prepare_frames"} <= names
        # surface_fit nests inside prepare_frames
        depths = {e["name"]: e["args"]["depth"] for e in spans}
        assert depths["surface_fit"] > depths["prepare_frames"]
        # tracing was switched back off after the export
        assert not TRACER.enabled

    def test_track_metrics_export(self, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.json")
        rc = main([
            "track", "florida", "--size", "64", "--search", "2",
            "--template", "3", "--metrics", metrics,
        ])
        assert rc == 0
        snap = json.loads(open(metrics).read())
        assert snap["counters"].get("hypotheses.evaluated", 0) > 0


class TestStreamObservability:
    def test_stream_report_includes_cost_breakdown(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "4",
            "--report", report,
        ])
        assert rc == 0
        payload = json.loads(open(report).read())
        assert "cost" in payload
        phases = {row["phase"] for row in payload["cost"]["breakdown"]}
        assert "Hypothesis matching" in phases
        assert payload["cost"]["total_modeled_seconds"] > 0
        assert payload["cost"]["total_gaussian_eliminations"] > 0
        # per-pair timing present in the opt-in schema
        outcome = payload["outcomes"][0]
        assert outcome["timestamp"] is not None
        assert outcome["wall_seconds"] > 0

    def test_stream_trace_has_pair_and_checkpoint_spans(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        ck = str(tmp_path / "ck.npz")
        rc = main([
            "stream", "luis", "--size", "64", "--frames", "4",
            "--checkpoint", ck, "--trace", trace,
        ])
        assert rc == 0
        payload = load_chrome_trace(trace)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"stream.pair", "stream.stage", "stream.fetch", "checkpoint.write"} <= names

    def test_stream_summary_prints_ge_count(self, capsys):
        rc = main(["stream", "luis", "--size", "64", "--frames", "4"])
        assert rc == 0
        assert "Gaussian eliminations" in capsys.readouterr().out

    def test_stream_pool_merges_worker_lanes(self, tmp_path, capsys):
        trace = str(tmp_path / "out.json")
        rc = main([
            "stream", "florida", "--size", "64", "--frames", "4", "--search", "2",
            "--template", "3", "--workers", "2", "--trace", trace,
        ])
        assert rc == 0
        payload = load_chrome_trace(trace)
        pair_spans = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "pair"
        ]
        # one event per worker pair span, no duplicates
        pairs = sorted(e["args"]["pair"] for e in pair_spans)
        assert pairs == sorted(set(pairs))
        assert len(pairs) >= 2
        # spans from more than one worker process in the single merged trace
        assert len({e["pid"] for e in pair_spans}) >= 2
