"""Derived protocol timelines.

Turns a raw trace (live :class:`~repro.obs.spans.ObsContext` or a loaded
:class:`~repro.obs.export.TraceData`) into the quantities the paper's
claims are stated in:

* **Commit latency by phase** — for every committed batch, how long the
  leader spent in each stage of DoOps: waiting in the submit queue,
  Prepare until majority ack, the leaseholder-ack wait (the red code's
  price on the write path), and the final commit.
* **Read lifecycle** — how many reads were served, how many ever
  blocked, and the distribution of blocking durations split by cause
  (no valid lease yet vs. a conflicting pending RMW).
* **Messages per committed operation** — network counter totals over
  the committed-op count: the locality-of-reads claim made measurable.
* **Leader dwell times** — tenure span durations per process; long
  dwell after GST is EL2 made visible.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..analysis.tables import Table, banner
from ..sim.trace import Summary, summarize
from .export import TraceData
from .spans import ObsContext, Span

__all__ = [
    "as_trace",
    "commit_breakdown",
    "read_timeline",
    "messages_per_op",
    "leader_dwell",
    "render_report",
]

_Traceish = Union[TraceData, ObsContext]


def as_trace(source: _Traceish) -> TraceData:
    if isinstance(source, ObsContext):
        return TraceData.from_obs(source)
    return source


def _committed_batches(trace: TraceData) -> list[Span]:
    return [
        s for s in trace.spans
        if s.name == "batch.commit" and s.status == "committed"
    ]


# ----------------------------------------------------------------------
# Commit latency by phase
# ----------------------------------------------------------------------

def commit_breakdown(source: _Traceish) -> dict[str, Summary]:
    """Per-phase latency summaries over every committed batch.

    Phases (all in simulated milliseconds):

    - ``queue_wait``: oldest op's wait in the leader's submit queue.
    - ``prepare``: Prepare broadcast until a majority acked.
    - ``lease_wait``: majority ack until the leaseholder condition
      resolved (all holders acked, the 2*delta deadline passed, or the
      full lease-expiry wait — the paper's at-most-once commit delay).
    - ``commit``: leaseholder resolution until the Commit broadcast.
    - ``total``: span start to commit.
    """
    phases: dict[str, list[float]] = {
        "queue_wait": [], "prepare": [], "lease_wait": [],
        "commit": [], "total": [],
    }
    for span in _committed_batches(trace := as_trace(source)):
        assert span.end is not None
        attrs = span.attrs
        phases["queue_wait"].append(float(attrs.get("queue_wait", 0.0)))
        acked = attrs.get("acked_at")
        holders = attrs.get("holders_done_at", acked)
        if acked is not None:
            phases["prepare"].append(acked - span.start)
            phases["lease_wait"].append(max(holders - acked, 0.0))
            phases["commit"].append(max(span.end - holders, 0.0))
        phases["total"].append(span.end - span.start)
    return {name: summarize(values) for name, values in phases.items()}


# ----------------------------------------------------------------------
# Read lifecycle
# ----------------------------------------------------------------------

def read_timeline(source: _Traceish) -> dict[str, Any]:
    """Read counts and blocking-duration distributions."""
    trace = as_trace(source)
    reads = [s for s in trace.spans if s.name == "read" and not s.open]
    basis_waits = []
    conflict_waits = []
    blocked = 0
    for span in reads:
        basis = float(span.attrs.get("basis_wait", 0.0))
        conflict = float(span.attrs.get("conflict_wait", 0.0))
        if basis > 0.0:
            basis_waits.append(basis)
        if conflict > 0.0:
            conflict_waits.append(conflict)
        if basis > 0.0 or conflict > 0.0:
            blocked += 1
    return {
        "count": len(reads),
        "blocked": blocked,
        "blocked_fraction": blocked / len(reads) if reads else 0.0,
        "basis_wait": summarize(basis_waits),
        "conflict_wait": summarize(conflict_waits),
        "latency": summarize(
            [s.duration for s in reads if s.duration is not None]
        ),
    }


# ----------------------------------------------------------------------
# Messages per committed operation
# ----------------------------------------------------------------------

def messages_per_op(source: _Traceish) -> Optional[dict[str, float]]:
    """Total messages over committed batches/ops; None without a metrics
    snapshot (a tracer-only export carries no network counters)."""
    trace = as_trace(source)
    messages = trace.metrics.get("messages") if trace.metrics else None
    if not messages:
        return None
    committed = _committed_batches(trace)
    ops = sum(int(s.attrs.get("size", 0)) for s in committed)
    total = float(messages.get("total_sent", 0.0))
    return {
        "messages_total": total,
        "committed_batches": float(len(committed)),
        "committed_ops": float(ops),
        "per_batch": total / len(committed) if committed else float("nan"),
        "per_op": total / ops if ops else float("nan"),
    }


# ----------------------------------------------------------------------
# Leader dwell
# ----------------------------------------------------------------------

def leader_dwell(source: _Traceish) -> dict[str, Any]:
    """Tenure durations: the longer a leader dwells, the closer the run
    is to the paper's permanent post-GST leader."""
    trace = as_trace(source)
    tenures = [s for s in trace.spans if s.name == "tenure" and not s.open]
    per_pid: dict[int, list[float]] = {}
    for span in tenures:
        assert span.duration is not None
        per_pid.setdefault(span.pid, []).append(span.duration)
    return {
        "count": len(tenures),
        "per_pid": per_pid,
        "dwell": summarize([s.duration for s in tenures]),  # type: ignore[misc]
    }


# ----------------------------------------------------------------------
# The rendered report (what `python -m repro.obs report` prints)
# ----------------------------------------------------------------------

def _summary_row(table: Table, label: str, summary: Summary) -> None:
    table.add_row(label, summary.count, summary.mean, summary.p50,
                  summary.p99, summary.max)


def render_report(source: _Traceish) -> str:
    """Render every derived timeline as monospace tables."""
    trace = as_trace(source)
    unit = trace.unit_label
    parts: list[str] = []

    parts.append(banner(f"commit latency by phase ({unit})"))
    commit_table = Table(["phase", "count", "mean", "p50", "p99", "max"])
    for name, summary in commit_breakdown(trace).items():
        _summary_row(commit_table, name, summary)
    parts.append(commit_table.render())

    reads = read_timeline(trace)
    parts.append(banner("read lifecycle"))
    parts.append(
        f"reads served: {reads['count']}   "
        f"ever blocked: {reads['blocked']} "
        f"({100.0 * reads['blocked_fraction']:.1f}%)"
    )
    read_table = Table(["wait", "count", "mean", "p50", "p99", "max"])
    _summary_row(read_table, "no-basis (lease/leadership)",
                 reads["basis_wait"])
    _summary_row(read_table, "conflicting pending RMW",
                 reads["conflict_wait"])
    _summary_row(read_table, "end-to-end latency", reads["latency"])
    parts.append(read_table.render())

    ratios = messages_per_op(trace)
    parts.append(banner("messages per committed operation"))
    if ratios is None:
        parts.append("(no metrics snapshot in this trace)")
    else:
        ratio_table = Table(["metric", "value"])
        ratio_table.add_row("messages sent", ratios["messages_total"])
        ratio_table.add_row("committed batches", ratios["committed_batches"])
        ratio_table.add_row("committed ops (incl. NoOps)",
                            ratios["committed_ops"])
        ratio_table.add_row("messages / batch", ratios["per_batch"])
        ratio_table.add_row("messages / op", ratios["per_op"])
        parts.append(ratio_table.render())

    dwell = leader_dwell(trace)
    parts.append(banner(f"leader dwell times ({unit})"))
    dwell_table = Table(["pid", "tenures", "mean dwell", "max dwell"])
    for pid, durations in sorted(dwell["per_pid"].items()):
        dwell_table.add_row(pid, len(durations),
                            sum(durations) / len(durations), max(durations))
    parts.append(dwell_table.render())

    return "\n\n".join(parts)
