"""Crash-safe observability export: ``obs.jsonl`` snapshots and summaries.

An export is a JSON-Lines file where every line is one self-describing
snapshot dict (``kind`` in ``{"metrics", "spans"}``; other kinds are
ignored).  Writes go through :func:`repro.utils.atomic_io.atomic_write_text`:
the whole file is rewritten atomically per flush, so a SIGKILL mid-export
leaves either the previous or the next complete file - the same durability
contract as the campaign manifest.  Appending to a prior export is modelled as
read-old-lines + write-all-lines, keeping the atomic guarantee.

``summarize`` is the shared backend of ``python -m repro obs report``: it
merges every metrics snapshot commutatively and folds span aggregates -
one mergeable view of an arbitrary pile of snapshots (multiple runs,
multiple workers, a resumed campaign).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..utils.atomic_io import atomic_write_text
from .metrics import SNAPSHOT_VERSION, merge_snapshots


def write_snapshots(path: str | Path, snapshots: list[dict[str, Any]],
                    append: bool = False) -> Path:
    """Atomically write (or extend) a ``.jsonl`` export of snapshot dicts."""
    path = Path(path)
    lines: list[dict[str, Any]] = []
    if append and path.exists():
        lines.extend(read_snapshots(path))
    lines.extend(snapshots)
    text = "".join(json.dumps(snap, sort_keys=True) + "\n" for snap in lines)
    return atomic_write_text(path, text)


def read_snapshots(path: str | Path) -> list[dict[str, Any]]:
    """Parse every snapshot line of an export (blank lines ignored)."""
    path = Path(path)
    out: list[dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return out


def summarize(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """One mergeable view of many snapshots (the ``obs report`` payload)."""
    metrics_snaps = [s for s in snapshots if s.get("kind") == "metrics"]
    span_snaps = [s for s in snapshots if s.get("kind") == "spans"]

    merged = merge_snapshots(metrics_snaps)
    by_agent: dict[str, list[dict[str, Any]]] = {}
    for snap in metrics_snaps:
        source = snap.get("source")
        if source:
            by_agent.setdefault(str(source), []).append(snap)
    agents: dict[str, dict[str, Any]] = {}
    for source, snaps in sorted(by_agent.items()):
        agent_merged = merge_snapshots(snaps, label=source)
        agents[source] = {
            "snapshots": len(snaps),
            "counters": agent_merged["counters"],
            "gauges": agent_merged["gauges"],
        }
    span_aggregates: dict[str, dict[str, float]] = {}
    spans_dropped = 0
    for snap in span_snaps:
        spans_dropped += int(snap.get("dropped", 0))
        for name, agg in snap.get("aggregates", {}).items():
            into = span_aggregates.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            into["count"] += agg["count"]
            into["total_s"] += agg["total_s"]
            into["max_s"] = max(into["max_s"], agg["max_s"])
    for agg in span_aggregates.values():
        agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0

    return {
        "kind": "obs_report",
        "version": SNAPSHOT_VERSION,
        "snapshots": len(snapshots),
        "counters": merged["counters"],
        "gauges": merged["gauges"],
        "histograms": merged["histograms"],
        "agents": agents,
        "spans": {
            "dropped": spans_dropped,
            "aggregates": dict(sorted(span_aggregates.items())),
        },
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`summarize` payload."""
    lines: list[str] = [f"obs report over {report['snapshots']} snapshot(s)"]
    if report["counters"]:
        lines.append("\ncounters:")
        width = max(len(n) for n in report["counters"])
        for name, value in report["counters"].items():
            lines.append(f"  {name:<{width}}  {value}")
    if report["gauges"]:
        lines.append("\ngauges:")
        width = max(len(n) for n in report["gauges"])
        for name, value in report["gauges"].items():
            lines.append(f"  {name:<{width}}  {value:g}")
    if report["histograms"]:
        lines.append("\nhistograms:")
        for name, h in report["histograms"].items():
            mean = h["sum"] / h["total"] if h["total"] else 0.0
            lines.append(
                f"  {name}: n={h['total']} mean={mean:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g}"
            )
    if report.get("agents"):
        lines.append("\nper-agent:")
        for source, section in report["agents"].items():
            lines.append(f"  {source} ({section['snapshots']} snapshot(s)):")
            names = list(section["counters"]) + list(section["gauges"])
            width = max((len(n) for n in names), default=0)
            for name, value in section["counters"].items():
                lines.append(f"    {name:<{width}}  {value}")
            for name, value in section["gauges"].items():
                lines.append(f"    {name:<{width}}  {value:g}")
    aggregates = report["spans"]["aggregates"]
    if aggregates:
        lines.append("\nspans:")
        width = max(len(n) for n in aggregates)
        for name, agg in aggregates.items():
            lines.append(
                f"  {name:<{width}}  count={agg['count']} "
                f"total={agg['total_s']:.3f}s mean={agg['mean_s']:.4f}s "
                f"max={agg['max_s']:.4f}s"
            )
        if report["spans"]["dropped"]:
            lines.append(f"  ({report['spans']['dropped']} spans dropped by the ring)")
    if len(lines) == 1:
        lines.append("(no metrics recorded - was obs enabled?)")
    return "\n".join(lines)
