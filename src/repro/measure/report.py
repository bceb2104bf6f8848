"""Run reports: deterministic JSON plus the human-readable XRAY screen.

:func:`build_report` assembles everything one run measured — counters,
histogram summaries, the per-transaction critical-path breakdown,
component utilization averaged over the sampler's rows, and the
always-available per-volume / TMF / audit statistics — into one plain
dict.  :func:`to_json` serializes it deterministically (sorted keys,
floats rounded), so two runs with the same seed produce byte-identical
reports.  :func:`render_report` draws the "XRAY screen" tables.

Works on unmeasured systems too: the counters and the volume, TMF, and
audit statistics are always on; only the gauge/histogram/transaction/
sample sections come back empty.

Imports nothing outside :mod:`repro.measure`, so it stays cycle-free.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .tables import format_table

__all__ = ["build_report", "to_json", "render_report", "write_report"]


def build_report(system: Any) -> Dict[str, Any]:
    """A JSON-friendly report of everything ``system`` measured."""
    env = system.env
    registry = system.metrics
    measured = registry is not None
    samples = registry.samples if measured else []
    counts = env.probe.counts
    # The gauges are the latest sample's utilizations.
    latest = samples[-1]["utilization"] if samples else {}
    report: Dict[str, Any] = {
        "meta": {
            "nodes": list(system.cluster.node_names),
            "sim_time_ms": env.now,
            "events_processed": env.events_processed,
            "measured": measured,
            "samples": len(samples),
        },
        "counters": {k: counts[k] for k in sorted(counts)},
        "gauges": {f"util.{k}": latest[k] for k in sorted(latest)},
        "histograms": {
            k: registry.histograms[k].summary()
            for k in sorted(registry.histograms)
        } if measured else {},
        "transactions": registry.aggregate() if measured else {"transactions": 0},
        "utilization": _utilization_summary(samples),
        "volumes": {
            f"{node}.{name}": _volume_stats(dp)
            for (node, name), dp in sorted(system.disc_processes.items())
        },
        "tmf": {
            node: {
                "commits": tmf.commits,
                "aborts": tmf.aborts,
                "phase1_sent": tmf.phase1_sent,
                "phase2_sent": tmf.phase2_sent,
                "remote_begins_sent": tmf.remote_begins_sent,
                "state_broadcasts": tmf.broadcaster.broadcasts,
            }
            for node, tmf in sorted(system.tmf.items())
        },
        "audit": {
            key: {
                "forces": ap.forces,
                "forced_block_writes": ap.forced_block_writes,
                "trail_records": ap.trail.total_records,
                "buffered": len(ap.state["buffer"]),
            }
            for key, ap in sorted(system.audit_processes.items())
        },
    }
    # Duck-typed: the invariant watchdog (when attached) surfaces its
    # alarm summary here.
    watchdog = getattr(system, "watchdog", None)
    if watchdog is not None:
        report["watchdog"] = watchdog.summary()
    return report


def _volume_stats(dp: Any) -> Dict[str, Any]:
    stats = dict(dp._stats())
    stats.pop("ok", None)
    return stats


def _utilization_summary(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Mean/max utilization per component over all sample rows."""
    totals: Dict[str, float] = {}
    peaks: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in samples:
        for name, value in row.get("utilization", {}).items():
            totals[name] = totals.get(name, 0.0) + value
            peaks[name] = max(peaks.get(name, 0.0), value)
            counts[name] = counts.get(name, 0) + 1
    return {
        name: {"mean": totals[name] / counts[name], "max": peaks[name]}
        for name in sorted(totals)
    }


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------
def _canonical(value: Any) -> Any:
    """Round floats and stringify keys so json.dumps is reproducible."""
    if isinstance(value, float):
        rounded = round(value, 6)
        return 0.0 if rounded == 0 else rounded
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def to_json(report: Dict[str, Any]) -> str:
    """Serialize deterministically: same run state -> same bytes."""
    return json.dumps(_canonical(report), sort_keys=True, indent=2)


def write_report(system: Any, path: str) -> str:
    """Build + serialize + write the report; returns ``path``."""
    with open(path, "w") as handle:
        handle.write(to_json(build_report(system)))
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# The XRAY screen
# ---------------------------------------------------------------------------
def render_report(report: Dict[str, Any]) -> str:
    """The human-readable tables an operator would watch."""
    sections: List[str] = []
    meta = report["meta"]
    sections.append(
        "XRAY RUN REPORT  "
        f"sim_time={meta['sim_time_ms']:.1f}ms  "
        f"events={meta['events_processed']}  "
        f"nodes={','.join(meta['nodes'])}"
    )

    tx = report["transactions"]
    if tx["transactions"]:
        rows = [
            {
                "phase": category,
                "total_ms": tx["category_ms"][category],
                "share_pct": 100.0 * tx["category_share"][category],
            }
            for category in tx["category_ms"]
        ]
        outcomes = "  ".join(
            f"{name}={count}" for name, count in tx["outcomes"].items()
        )
        sections.append(
            format_table(
                rows,
                title=(
                    f"TRANSACTION CRITICAL PATH  "
                    f"({tx['transactions']} transactions: {outcomes})"
                ),
            )
        )

    utilization = report["utilization"]
    if utilization:
        rows = [
            {
                "component": name,
                "mean_util_pct": 100.0 * utilization[name]["mean"],
                "max_util_pct": 100.0 * utilization[name]["max"],
            }
            for name in utilization
        ]
        sections.append(format_table(rows, title="COMPONENT UTILIZATION"))

    histograms = report["histograms"]
    if histograms:
        rows = []
        for name, summary in histograms.items():
            if not summary.get("count"):
                continue
            rows.append(
                {
                    "histogram": name,
                    "count": summary["count"],
                    "mean": summary["mean"],
                    "p50": summary["p50"],
                    "p90": summary["p90"],
                    "p99": summary["p99"],
                    "max": summary["max"],
                }
            )
        if rows:
            sections.append(format_table(rows, title="LATENCY HISTOGRAMS (ms)"))

    volumes = report["volumes"]
    if volumes:
        rows = [
            {
                "volume": name,
                "cache_hit_pct": 100.0 * stats["cache"]["hit_ratio"],
                "reads": stats["physical_reads"],
                "writes": stats["physical_writes"],
                "lock_waits": stats["lock_waits"],
                "lock_timeouts": stats["lock_timeouts"],
            }
            for name, stats in volumes.items()
        ]
        sections.append(format_table(rows, title="DISC VOLUMES"))

    tmf_rows = [
        {
            "node": node,
            "commits": stats["commits"],
            "aborts": stats["aborts"],
            "phase1": stats["phase1_sent"],
            "phase2": stats["phase2_sent"],
            "broadcasts": stats["state_broadcasts"],
        }
        for node, stats in report["tmf"].items()
    ]
    if tmf_rows:
        sections.append(format_table(tmf_rows, title="TMF"))

    audit_rows = [
        {
            "audit_process": key,
            "forces": stats["forces"],
            "block_writes": stats["forced_block_writes"],
            "trail_records": stats["trail_records"],
        }
        for key, stats in report["audit"].items()
    ]
    if audit_rows:
        sections.append(format_table(audit_rows, title="AUDIT TRAILS"))

    return "\n\n".join(sections)
