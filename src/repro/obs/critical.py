"""Critical-path analysis and deadline-miss root-cause attribution.

Built on :mod:`repro.obs.lineage`: given a traced run, every
``frame.deadline_miss`` event is classified into exactly one cause from
:data:`CAUSES` by walking the frame's blocking chain —

* a *processed* miss (the client ran and still blew the budget) is
  on-device compute, attributed to degrade-mode residency when the
  session was degraded at capture;
* a *stale* miss (the client was busy) is attributed to the span that
  kept it busy: a long local compute, or the integration of an earlier
  offload — in which case the **producing request's lineage** is
  inspected in priority order (channel stall -> handoff -> straggler
  window -> batch-join penalty -> dominant exclusive segment).

The classifier is total: every miss maps to a concrete cause, never
``unknown`` — the acceptance bar ``repro bench run`` and ``repro why``
enforce with their exit code.  All outputs are pure functions of the
simulated-clock trace, so re-rendering a report is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from .lineage import SEGMENT_ORDER, RequestLineage, build_lineages
from .trace import Tracer

__all__ = [
    "CAUSES",
    "classify_misses",
    "miss_causes",
    "render_waterfall",
    "build_why",
    "render_why_markdown",
    "why_filename",
    "write_why",
]

# The closed cause taxonomy, most specific first.
CAUSE_DEGRADE = "degrade-residency"
CAUSE_DEVICE = "device-compute-overrun"
CAUSE_STALL = "channel-stall"
CAUSE_HANDOFF = "channel-handoff"
CAUSE_STRAGGLER = "straggler-replica"
CAUSE_BATCH = "batch-join-penalty"
CAUSE_QUEUE = "queue-wait"
CAUSE_SERVICE = "server-service"
CAUSE_NETWORK = "network-transfer"
CAUSE_DELIVERY = "delivery-tick-wait"
CAUSE_INTEGRATION = "integration-backlog"
CAUSE_CLIENT = "client-backlog"

CAUSES = (
    CAUSE_DEGRADE,
    CAUSE_DEVICE,
    CAUSE_STALL,
    CAUSE_HANDOFF,
    CAUSE_STRAGGLER,
    CAUSE_BATCH,
    CAUSE_QUEUE,
    CAUSE_SERVICE,
    CAUSE_NETWORK,
    CAUSE_DELIVERY,
    CAUSE_INTEGRATION,
    CAUSE_CLIENT,
)

_EPS = 1e-6

# Dominant-segment fallback: lineage segment -> cause, in tie-break
# priority order (earlier wins on equal time).
_SEGMENT_CAUSES = (
    ("queue_wait", CAUSE_QUEUE),
    ("service", CAUSE_SERVICE),
    ("uplink", CAUSE_NETWORK),
    ("downlink", CAUSE_NETWORK),
    ("delivery_wait", CAUSE_DELIVERY),
    ("integration", CAUSE_INTEGRATION),
    ("device_compute", CAUSE_DEVICE),
    ("serialize", CAUSE_DEVICE),
    ("batch_wait", CAUSE_BATCH),
)


def _degrade_windows(tracer: Tracer) -> dict[int, list[tuple[float, float]]]:
    """Per-session MAMT-fallback residency windows from the
    ``serve.degrade`` / ``serve.recover`` event stream (an unclosed
    window extends to the end of the run)."""
    windows: dict[int, list[tuple[float, float]]] = {}
    for event in tracer.events:
        if event.name == "serve.degrade":
            session = int(event.attrs.get("session", -1))
            windows.setdefault(session, []).append((event.ts_ms, float("inf")))
        elif event.name == "serve.recover":
            session = int(event.attrs.get("session", -1))
            spans = windows.get(session)
            if spans and spans[-1][1] == float("inf"):
                spans[-1] = (spans[-1][0], event.ts_ms)
    return windows


def _straggler_windows(tracer: Tracer) -> dict[int, list[tuple[float, float]]]:
    """Per-server straggler-fault windows from ``chaos.straggler_on`` /
    ``chaos.straggler_off`` (falling back to the scheduled ``until_ms``
    when the run ends mid-fault)."""
    windows: dict[int, list[tuple[float, float]]] = {}
    for event in tracer.events:
        if event.name == "chaos.straggler_on":
            server = int(event.attrs.get("server", -1))
            until = float(event.attrs.get("until_ms", float("inf")))
            windows.setdefault(server, []).append((event.ts_ms, until))
        elif event.name == "chaos.straggler_off":
            server = int(event.attrs.get("server", -1))
            spans = windows.get(server)
            if spans:
                spans[-1] = (spans[-1][0], min(spans[-1][1], event.ts_ms))
    return windows


def _in_window(windows: list[tuple[float, float]], at_ms: float) -> bool:
    return any(start <= at_ms < end for start, end in windows)


def _overlaps(windows: list[tuple[float, float]], start: float, end: float) -> bool:
    return any(start < w_end and end > w_start for w_start, w_end in windows)


def _classify_lineage(
    lineage: RequestLineage,
    stragglers: dict[int, list[tuple[float, float]]],
) -> str:
    """Root cause of one producing request's latency, priority order."""
    if lineage.stall_ms > 0.0:
        return CAUSE_STALL
    if lineage.handoff_link is not None:
        return CAUSE_HANDOFF
    if lineage.infer is not None and _overlaps(
        stragglers.get(lineage.server, []),
        lineage.infer.start_ms,
        lineage.infer.end_ms,
    ):
        return CAUSE_STRAGGLER
    segments = lineage.segments
    batch_wait = segments.get("batch_wait", 0.0)
    if batch_wait > _EPS and batch_wait >= segments.get("queue_wait", 0.0):
        return CAUSE_BATCH
    best_cause, best_value = CAUSE_INTEGRATION, -1.0
    for key, cause in _SEGMENT_CAUSES:
        value = segments.get(key, 0.0)
        if value > best_value + _EPS:
            best_cause, best_value = cause, value
    return best_cause


def classify_misses(tracer: Tracer, warmup_frames: int = 0) -> list[dict]:
    """Classify every measured ``frame.deadline_miss`` of a traced run.

    Returns one record per miss (deterministic event order):
    ``{session, frame, ts_ms, latency_ms, over_ms, processed, cause,
    blocker_frame?, trace?}``.  ``blocker_frame``/``trace`` point at the
    producing request when the miss was blamed on an earlier offload.
    """
    lineages = build_lineages(tracer)
    degraded = _degrade_windows(tracer)
    stragglers = _straggler_windows(tracer)

    # Client-lane blocking material, grouped by lane for the stale walk.
    by_lane: dict[str, list] = {}
    for span in tracer.spans:
        if span.name in ("client.process", "client.integrate"):
            by_lane.setdefault(span.lane, []).append(span)
    stale_spans = {
        (span.ctx.session, span.ctx.frame): span
        for span in tracer.spans
        if span.name == "client.stale_wait" and span.ctx is not None
    }

    misses: list[dict] = []
    for event in tracer.events:
        if event.name != "frame.deadline_miss" or event.ctx is None:
            continue
        if event.ctx.frame < warmup_frames:
            continue
        now = event.ts_ms
        record = {
            "session": event.ctx.session,
            "frame": event.ctx.frame,
            "ts_ms": round(now, 6),
            "latency_ms": float(event.attrs.get("latency_ms", 0.0)),
            "over_ms": float(event.attrs.get("over_ms", 0.0)),
            "processed": bool(event.attrs.get("processed", False)),
        }
        if event.ctx.tenant is not None:
            record["tenant"] = event.ctx.tenant
        session_windows = degraded.get(event.ctx.session, [])

        if record["processed"]:
            record["cause"] = (
                CAUSE_DEGRADE
                if _in_window(session_windows, now)
                else CAUSE_DEVICE
            )
            misses.append(record)
            continue

        stale = stale_spans.get((event.ctx.session, event.ctx.frame))
        busy_until = (
            float(stale.attrs.get("busy_until_ms", now))
            if stale is not None
            else now
        )
        blockers = [
            span
            for span in by_lane.get(event.lane, [])
            if span.end_ms > now + _EPS and span.start_ms < busy_until + _EPS
        ]
        if not blockers:
            record["cause"] = CAUSE_CLIENT
            misses.append(record)
            continue
        primary = min(blockers, key=lambda s: (-s.dur_ms, s.start_ms, s.seq))
        if primary.name == "client.process":
            record["cause"] = (
                CAUSE_DEGRADE
                if _in_window(session_windows, primary.start_ms)
                else CAUSE_DEVICE
            )
            if primary.ctx is not None:
                record["blocker_frame"] = primary.ctx.frame
            misses.append(record)
            continue
        # The blocker is the integration of an earlier offload: inspect
        # the producing request's lineage for the true critical path.
        lineage = (
            lineages.get(primary.ctx.trace_id) if primary.ctx is not None else None
        )
        if lineage is None:
            record["cause"] = CAUSE_INTEGRATION
        else:
            record["cause"] = _classify_lineage(lineage, stragglers)
            record["blocker_frame"] = lineage.frame
            record["trace"] = lineage.trace_id
        misses.append(record)
    return misses


def miss_causes(
    tracer: Tracer, budget_ms: float, warmup_frames: int = 0
) -> dict:
    """The BENCH ``miss_causes`` section: ranked cause counts for every
    measured deadline miss of a traced run (JSON-clean, deterministic)."""
    misses = classify_misses(tracer, warmup_frames)
    causes: dict[str, int] = {}
    for miss in misses:
        causes[miss["cause"]] = causes.get(miss["cause"], 0) + 1
    classified = sum(
        count for cause, count in causes.items() if cause in CAUSES
    )
    top_cause = None
    if causes:
        top_cause = min(causes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return {
        "budget_ms": round(budget_ms, 6),
        "misses": len(misses),
        "classified": classified,
        "unclassified": len(misses) - classified,
        "causes": dict(sorted(causes.items())),
        "top_cause": top_cause,
    }


def render_waterfall(lineage: RequestLineage, width: int = 28) -> list[str]:
    """One request's exclusive segments as fixed-width bar lines."""
    total = lineage.e2e_ms
    lines = []
    for name in SEGMENT_ORDER:
        if name not in lineage.segments:
            continue
        value = lineage.segments[name]
        cells = int(round(value / total * width)) if total > 0.0 else 0
        if value > _EPS and cells == 0:
            cells = 1
        lines.append(
            f"    {name:<15}|{'#' * cells:<{width}}| {value:9.3f} ms"
        )
    lines.append(
        f"    {'end-to-end':<15}|{'=' * width}| {total:9.3f} ms"
        f"  ({lineage.outcome}, server {lineage.server})"
    )
    return lines


def why_filename(suite: str, label: str) -> str:
    return f"WHY_{suite}_{label}.md"


def build_why(
    payload: dict,
    observed: dict[str, dict],
    session: int | None = None,
    frame: int | None = None,
    max_waterfalls: int = 3,
) -> dict:
    """Build the ``repro why`` console from a finished suite run.

    ``payload`` and ``observed`` are what
    :func:`repro.eval.suites.run_suite` returns; each traced cell's
    ranked causes are its BENCH ``miss_causes`` section.  Returns
    ``{"markdown": str, "unclassified": int, "scenarios": {name:
    miss_causes section}}`` — the caller turns a non-zero
    ``unclassified`` into a failing exit code.
    """
    sections: list[str] = []
    summaries: dict[str, dict] = {}
    for name, seen in observed.items():
        tracer = seen["tracer"]
        cell = payload["scenarios"][name]
        summaries[name] = cell["miss_causes"]
        sections.extend(
            _render_scenario_section(
                name,
                cell["miss_causes"],
                classify_misses(tracer, cell["spec"]["warmup_frames"]),
                build_lineages(tracer),
                session,
                frame,
                max_waterfalls,
            )
        )
    return {
        "markdown": render_why_markdown(
            payload["suite"], payload["label"], payload["budget_ms"], sections
        ),
        "unclassified": sum(s["unclassified"] for s in summaries.values()),
        "scenarios": summaries,
    }


def _render_scenario_section(
    name: str,
    summary: dict,
    misses: list[dict],
    lineages: dict[str, RequestLineage],
    session: int | None,
    frame: int | None,
    max_waterfalls: int,
) -> list[str]:
    lines = [f"## {name}", ""]
    lines.append(
        f"deadline misses (measured): {summary['misses']} · "
        f"classified: {summary['classified']} · "
        f"unclassified: {summary['unclassified']}"
    )
    lines.append("")
    if summary["causes"]:
        lines.append("| rank | cause | count | share |")
        lines.append("|---|---|---|---|")
        ranked = sorted(summary["causes"].items(), key=lambda kv: (-kv[1], kv[0]))
        for rank, (cause, count) in enumerate(ranked, start=1):
            share = count / summary["misses"] * 100.0
            lines.append(f"| {rank} | {cause} | {count} | {share:.1f}% |")
        lines.append("")
    else:
        lines.append("No deadline misses — nothing to attribute.")
        lines.append("")

    selected = [
        miss
        for miss in misses
        if (session is None or miss["session"] == session)
        and (frame is None or miss["frame"] == frame)
    ]
    if session is None and frame is None:
        selected = sorted(
            selected, key=lambda m: (-m["over_ms"], m["session"], m["frame"])
        )[:max_waterfalls]
    for miss in selected:
        title = (
            f"### s{miss['session']}-f{miss['frame']} · "
            f"+{miss['over_ms']:.3f} ms over budget · cause: {miss['cause']}"
        )
        if "tenant" in miss:
            title += f" · tenant: {miss['tenant']}"
        lines.append(title)
        lines.append("")
        trace_id = miss.get("trace", f"s{miss['session']}-f{miss['frame']}")
        lineage = lineages.get(trace_id)
        lines.append("```")
        if "blocker_frame" in miss:
            lines.append(
                f"  blocked by frame {miss['blocker_frame']} "
                f"({'offload ' + trace_id if lineage else 'on-device compute'})"
            )
        if lineage is not None:
            lines.extend(render_waterfall(lineage))
        else:
            lines.append("  no offload lineage — latency is on-device.")
        lines.append("```")
        lines.append("")
    return lines


def render_why_markdown(
    suite: str, label: str, budget_ms: float, sections: list[str]
) -> str:
    lines = [
        f"# repro why — suite `{suite}` ({label})",
        "",
        f"Frame budget: {budget_ms:.3f} ms.  Every deadline miss is"
        " attributed to exactly one cause by critical-path analysis of"
        " the frame's causal lineage (see docs/observability.md).",
        "",
        "Waterfall segments are exclusive and telescoping: they sum to"
        " the request's end-to-end latency.",
        "",
    ]
    lines.extend(sections)
    return "\n".join(lines).rstrip("\n") + "\n"


def write_why(markdown: str, out_dir: str | Path, suite: str, label: str) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / why_filename(suite, label)
    path.write_text(markdown)
    return path
