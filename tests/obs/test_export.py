"""Unit tests for the obs export layer: jsonl round-trip and summarize."""

import json

import pytest

from repro import obs
from repro.obs.export import format_report, read_snapshots, summarize, write_snapshots


def metrics_snap(count):
    reg = obs.Registry()
    reg.counter("c").add(count)
    return reg.snapshot()


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        snaps = [metrics_snap(1), metrics_snap(2)]
        assert write_snapshots(path, snaps) == path
        assert read_snapshots(path) == snaps

    def test_append_keeps_prior_lines(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_snapshots(path, [metrics_snap(1)])
        write_snapshots(path, [metrics_snap(2)], append=True)
        assert [s["counters"]["c"] for s in read_snapshots(path)] == [1, 2]

    def test_without_append_overwrites(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_snapshots(path, [metrics_snap(1)])
        write_snapshots(path, [metrics_snap(2)])
        assert [s["counters"]["c"] for s in read_snapshots(path)] == [2]

    def test_corrupt_line_is_reported_with_position(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text(json.dumps(metrics_snap(1)) + "\n{nope\n")
        with pytest.raises(ValueError, match="obs.jsonl:2"):
            read_snapshots(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text("\n" + json.dumps(metrics_snap(3)) + "\n\n")
        assert len(read_snapshots(path)) == 1


class TestSummarize:
    def test_merges_metrics_and_folds_spans(self):
        obs.enable()
        obs.record_span("work", 1.0)
        obs.record_span("work", 3.0)
        report = summarize([metrics_snap(1), metrics_snap(2), obs.spans_snapshot()])
        assert report["kind"] == "obs_report"
        assert report["snapshots"] == 3
        assert report["counters"] == {"c": 3}
        agg = report["spans"]["aggregates"]["work"]
        assert agg["count"] == 2 and agg["mean_s"] == 2.0

    def test_stale_profile_lines_are_ignored(self):
        stale = {"kind": "profile", "label": "old", "samples": 3,
                 "interval_s": 0.01, "self": {}, "cumulative": {}}
        report = summarize([metrics_snap(1), stale])
        assert report["snapshots"] == 2
        assert report["counters"] == {"c": 1}
        assert "profile" not in report
        assert "profile" not in format_report(report)

    def test_format_report_renders_every_section(self):
        obs.enable()
        obs.counter("hits").add(2)
        obs.gauge("level").set(0.5)
        obs.histogram("sizes", [1.0, 10.0]).observe(4.0)
        obs.record_span("work", 1.5)
        text = format_report(summarize([obs.snapshot(), obs.spans_snapshot()]))
        for fragment in ("counters:", "gauges:", "histograms:", "spans:",
                         "hits", "level", "sizes", "work"):
            assert fragment in text

    def test_format_report_empty_hints_at_enablement(self):
        text = format_report(summarize([]))
        assert "was obs enabled?" in text
