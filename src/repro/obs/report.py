"""The ops report: one suite run -> a deterministic markdown + HTML console.

The benchmark harness answers "did the numbers move"; this module
answers "what happened during the run" in a form an operator can read:

* per-scenario SLO + error-budget summary (miss rate, burn rates,
  budget consumed/remaining, exhaustion instant);
* **timeline sparklines** for every sampled gauge series and the
  interesting counters (queue depth, degrade population, latency EWMA,
  outstanding deliveries) from the :class:`~repro.obs.timeline.TimelineSampler`;
* a **burn-rate chart** (fast/slow windows against the burn = 1 line);
* **per-session state strips** reconstructing each client's
  admit/degrade/recover trajectory from the ``serve.*`` trace events;
* the **top anomalies** (latency spikes, monotonic queue growth,
  budget exhaustion).

``repro bench run`` writes the report next to the BENCH artifact, from
the same run.  Both renderings are pure functions of that run: no wall
clock, no randomness, sorted iteration everywhere — two identical runs
produce **byte-identical** ``REPORT_<suite>_<label>.md`` / ``.html``
files, so reports can be committed, diffed and rendered as CI artifacts.
"""

from __future__ import annotations

from pathlib import Path

from .budget import detect_budget_exhaustion, session_timelines
from .timeline import (
    DEFAULT_SAMPLE_INTERVAL_MS,
    detect_latency_spikes,
    detect_queue_growth,
)

__all__ = [
    "REPORT_COUNTER_SERIES",
    "build_report",
    "render_report_markdown",
    "render_report_html",
    "report_filename",
    "write_report",
    "sparkline",
]

# Counter series worth a sparkline (cumulative totals; everything else
# sampled from counters is too flat to read).  Gauge series are always
# rendered — they are the live signals the sampler exists for.
REPORT_COUNTER_SERIES = (
    "pipeline.deadline_miss",
    "serve.shed",
    "serve.submitted",
)

SPARK_LEVELS = "▁▂▃▄▅▆▇█"


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
def build_report(payload: dict, observed: dict[str, dict]) -> dict:
    """Fold a finished suite run into one report payload.

    ``payload`` and ``observed`` are what
    :func:`repro.eval.suites.run_suite` returns.  Each traced cell's
    BENCH section gains the full error budget (with its burn series),
    its timelines, session trajectories and anomalies; kernel cells are
    left out.
    """
    scenarios: dict[str, dict] = {}
    for name, seen in observed.items():
        cell = payload["scenarios"][name]
        tracer = seen["tracer"]
        anomalies = detect_latency_spikes(
            tracer, warmup_frames=cell["spec"]["warmup_frames"]
        )
        anomalies += detect_queue_growth(seen["sampler"])
        anomalies += detect_budget_exhaustion(seen["budget"])
        anomalies.sort(key=lambda a: (-a.get("severity", 0.0), a["ts_ms"], a["type"]))
        scenarios[name] = {
            **cell,
            "budget": seen["budget"],  # full form, with burn_series
            "timeline": seen["sampler"].to_dict(),
            "sessions": session_timelines(tracer, duration_ms=seen["duration_ms"]),
            "anomalies": anomalies,
            "duration_ms": round(seen["duration_ms"], 6),
        }
    return {
        **payload,
        "kind": "report",
        "sample_interval_ms": round(DEFAULT_SAMPLE_INTERVAL_MS, 6),
        "scenarios": scenarios,
    }


# ----------------------------------------------------------------------
# Shared rendering helpers
# ----------------------------------------------------------------------
def sparkline(values, width: int = 48) -> str:
    """Unicode sparkline of a series, bucket-averaged down to ``width``."""
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        bucketed = []
        for index in range(width):
            lo = index * len(values) // width
            hi = max(lo + 1, (index + 1) * len(values) // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0.0:
        return SPARK_LEVELS[0] * len(values)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[min(top, int((v - lo) / span * top + 0.5))] for v in values
    )


def _fmt(value, digits: int = 2) -> str:
    """Stable numeric formatting ('—' for None/NaN)."""
    if value is None:
        return "—"
    if isinstance(value, float) and value != value:  # NaN
        return "—"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _timeline_rows(scenario: dict) -> list[dict]:
    """The series worth rendering: every gauge + the selected counters."""
    timeline = scenario.get("timeline")
    if not timeline:
        return []
    rows = []
    for name in sorted(timeline["series"]):
        series = timeline["series"][name]
        if series["kind"] != "gauge" and name not in REPORT_COUNTER_SERIES:
            continue
        if not series["values"]:
            continue
        rows.append(series)
    return rows


def _session_strip(session: dict, duration_ms: float, width: int = 48) -> str:
    """One character per time bucket: '·' normal, '█' degraded."""
    transitions = session["transitions"]
    chars = []
    for bucket in range(width):
        ts = (bucket + 0.5) / width * duration_ms
        state = "normal"
        for transition in transitions:
            if transition["ts_ms"] <= ts:
                state = transition["state"]
            else:
                break
        chars.append("█" if state == "degraded" else "·")
    return "".join(chars)


def _anomaly_detail(anomaly: dict) -> str:
    if anomaly["type"] == "latency_spike":
        return (
            f"{_fmt(anomaly['latency_ms'])} ms vs baseline "
            f"{_fmt(anomaly['baseline_ms'])} ms"
        )
    if anomaly["type"] == "queue_growth":
        return (
            f"{anomaly['series']} grew {_fmt(anomaly['from_depth'], 0)} -> "
            f"{_fmt(anomaly['to_depth'], 0)} over {anomaly['samples']} samples"
        )
    if anomaly["type"] == "budget_exhausted":
        return (
            f"budget consumed {_fmt(anomaly['consumed_fraction'] * 100.0, 1)}% "
            f"(target miss rate {_fmt(anomaly['target_miss_rate'] * 100.0, 1)}%)"
        )
    return ""


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_report_markdown(report: dict, top_anomalies: int = 10) -> str:
    lines = [
        f"# Ops report — {report['suite']} [{report['label']}]",
        "",
        "*Generated by `python -m repro.eval.cli bench run` from a fully"
        " deterministic simulated run — two runs with the same seed are"
        " byte-identical.*",
        "",
        f"- frame budget: {_fmt(report['budget_ms'])} ms, SLO target:"
        f" {_fmt(report['slo_target'] * 100.0, 1)}% miss",
        f"- sample interval: {_fmt(report['sample_interval_ms'], 0)} ms,"
        f" degrade factor: {_fmt(report['degrade'], 2)}",
        "- environment: {python} ({implementation}) on {platform}/{machine},"
        " numpy {numpy}".format(**report["environment"]),
        "",
    ]
    for name in sorted(report["scenarios"]):
        scenario = report["scenarios"][name]
        lines += _scenario_markdown(name, scenario, top_anomalies)
    return "\n".join(lines)


def _scenario_markdown(name: str, scenario: dict, top_anomalies: int) -> list[str]:
    spec = scenario["spec"]
    slo = scenario["slo"]
    budget = scenario["budget"]
    lines = [f"## Scenario `{name}`", ""]
    topology = ""
    if "num_clients" in spec:
        topology = (
            f", {spec['num_clients']} clients, {spec['policy']}"
            f" x{spec.get('num_servers', 1)} server(s)"
        )
    lines.append(
        f"{spec['system']} on {spec['dataset']} over {spec['network']}"
        f" ({spec['frames']} frames{topology})"
    )
    lines.append("")

    lines += [
        "### SLO & error budget",
        "",
        "| metric | value |",
        "|---|---|",
        f"| frames measured | {slo['frames']} |",
        f"| deadline misses | {slo['misses']}"
        f" ({_fmt(slo['miss_rate'] * 100.0, 2)}%) |",
        f"| worst streak | {slo['worst_streak']} |",
        f"| latency p50 / p90 / p99 | {_fmt(slo['latency_p50_ms'])} /"
        f" {_fmt(slo['latency_p90_ms'])} / {_fmt(slo['latency_p99_ms'])} ms |",
        f"| error budget | {_fmt(budget['allowed_misses'], 1)} misses allowed,"
        f" {_fmt(budget['consumed_fraction'] * 100.0, 1)}% consumed |",
        f"| budget remaining | {_fmt(budget['remaining_fraction'] * 100.0, 1)}% |",
        f"| burn rate (fast/slow, final) | {_fmt(budget['fast_burn_rate'])} /"
        f" {_fmt(budget['slow_burn_rate'])} |",
        f"| burn rate (fast/slow, max) | {_fmt(budget['max_fast_burn_rate'])} /"
        f" {_fmt(budget['max_slow_burn_rate'])} |",
        f"| budget exhausted at | {_fmt(budget['exhausted_at_ms'])}"
        f"{' ms' if budget['exhausted_at_ms'] is not None else ''} |",
        "",
    ]

    burn = budget.get("burn_series") or {}
    if burn.get("times_ms"):
        lines += [
            "### Burn rate",
            "",
            "```",
            f"fast ({_fmt(budget['fast_window_ms'], 0)} ms) "
            f"{sparkline(burn['fast'])}  max {_fmt(budget['max_fast_burn_rate'])}",
            f"slow ({_fmt(budget['slow_window_ms'], 0)} ms) "
            f"{sparkline(burn['slow'])}  max {_fmt(budget['max_slow_burn_rate'])}",
            "```",
            "",
        ]

    rows = _timeline_rows(scenario)
    if rows:
        lines += [
            "### Timelines",
            "",
            "| series | sparkline | min | max | last |",
            "|---|---|---|---|---|",
        ]
        for series in rows:
            values = series["values"]
            lines.append(
                f"| `{series['name']}` | `{sparkline(values)}` |"
                f" {_fmt(min(values))} | {_fmt(max(values))} |"
                f" {_fmt(values[-1])} |"
            )
        lines.append("")

    sessions = scenario.get("sessions") or []
    if sessions:
        lines += ["### Sessions", "", "```"]
        for session in sessions:
            strip = _session_strip(session, scenario["duration_ms"])
            lines.append(
                f"s{session['session']} {strip}  "
                f"admits={session['admits']} rejects={session['rejects']} "
                f"sheds={session['sheds']} degrades={session['degrades']} "
                f"recovers={session['recovers']} "
                f"degraded={_fmt(session.get('degraded_fraction', 0.0) * 100.0, 1)}%"
            )
        lines += ["```", ""]

    anomalies = scenario.get("anomalies") or []
    lines += ["### Top anomalies", ""]
    if not anomalies:
        lines += ["None detected.", ""]
    else:
        lines += [
            "| # | type | t (ms) | lane | severity | detail |",
            "|---|---|---|---|---|---|",
        ]
        for rank, anomaly in enumerate(anomalies[:top_anomalies], start=1):
            lines.append(
                f"| {rank} | {anomaly['type']} | {_fmt(anomaly['ts_ms'], 1)} |"
                f" {anomaly.get('lane', '—')} |"
                f" {_fmt(anomaly.get('severity'))} | {_anomaly_detail(anomaly)} |"
            )
        if len(anomalies) > top_anomalies:
            lines.append("")
            lines.append(
                f"*… and {len(anomalies) - top_anomalies} more.*"
            )
        lines.append("")
    return lines


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 62rem; color: #1f2430; }
h1, h2, h3 { font-weight: 600; }
h2 { border-bottom: 1px solid #d8dce4; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #d8dce4; padding: .25rem .6rem;
         font-size: .85rem; text-align: left; }
th { background: #f2f4f8; }
code, .mono { font-family: ui-monospace, 'SF Mono', Menlo, monospace; }
.meta { color: #5a6172; font-size: .85rem; }
.spark { vertical-align: middle; }
.strip-label { display: inline-block; width: 2.5rem; }
.badge { padding: 0 .4rem; border-radius: .5rem; font-size: .8rem; }
.badge.ok { background: #d8f2dc; } .badge.bad { background: #f8d7d7; }
""".strip()


def _svg_polyline(values, width=240, height=36, color="#3566c4", bold=False):
    if not values:
        return f'<svg class="spark" width="{width}" height="{height}"></svg>'
    lo, hi = min(values), max(values)
    span = hi - lo if hi > lo else 1.0
    count = len(values)
    points = []
    for index, value in enumerate(values):
        x = 2.0 + (index / (count - 1) if count > 1 else 0.5) * (width - 4.0)
        y = height - 3.0 - (value - lo) / span * (height - 6.0)
        points.append(f"{x:.2f},{y:.2f}")
    stroke = 2.0 if bold else 1.2
    return (
        f'<svg class="spark" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="{color}" stroke-width="{stroke}" '
        f'points="{" ".join(points)}"/></svg>'
    )


def _svg_burn_chart(budget: dict, width=560, height=130) -> str:
    burn = budget.get("burn_series") or {}
    times = burn.get("times_ms") or []
    if not times:
        return ""
    fast, slow = burn["fast"], burn["slow"]
    hi = max(1.0, max(fast, default=0.0), max(slow, default=0.0))
    t_lo, t_hi = times[0], times[-1]
    t_span = t_hi - t_lo if t_hi > t_lo else 1.0

    def path(series):
        points = []
        for ts, value in zip(times, series):
            x = 4.0 + (ts - t_lo) / t_span * (width - 8.0)
            y = height - 16.0 - value / hi * (height - 26.0)
            points.append(f"{x:.2f},{y:.2f}")
        return " ".join(points)

    budget_y = height - 16.0 - 1.0 / hi * (height - 26.0)
    return (
        f'<svg width="{width}" height="{height}">'
        f'<line x1="4" y1="{budget_y:.2f}" x2="{width - 4}" y2="{budget_y:.2f}"'
        f' stroke="#b8bec9" stroke-dasharray="4 3"/>'
        f'<text x="6" y="{budget_y - 3:.2f}" font-size="9" fill="#5a6172">'
        f"burn = 1.0</text>"
        f'<polyline fill="none" stroke="#c2452f" stroke-width="1.6"'
        f' points="{path(fast)}"/>'
        f'<polyline fill="none" stroke="#3566c4" stroke-width="1.6"'
        f' points="{path(slow)}"/>'
        f'<text x="6" y="12" font-size="10" fill="#c2452f">fast'
        f" ({_fmt(budget['fast_window_ms'], 0)} ms)</text>"
        f'<text x="110" y="12" font-size="10" fill="#3566c4">slow'
        f" ({_fmt(budget['slow_window_ms'], 0)} ms)</text>"
        f"</svg>"
    )


def _svg_session_strip(
    session: dict, duration_ms: float, width=480, height=14
) -> str:
    transitions = session["transitions"]
    rects = []
    for pos, transition in enumerate(transitions):
        start = transition["ts_ms"]
        end = (
            transitions[pos + 1]["ts_ms"]
            if pos + 1 < len(transitions)
            else duration_ms
        )
        if end <= start:
            continue
        x = start / duration_ms * width if duration_ms else 0.0
        rect_width = (end - start) / duration_ms * width if duration_ms else width
        color = "#c2452f" if transition["state"] == "degraded" else "#cfe3cf"
        rects.append(
            f'<rect x="{x:.2f}" y="1" width="{rect_width:.2f}"'
            f' height="{height - 2}" fill="{color}"/>'
        )
    return (
        f'<svg width="{width}" height="{height}">'
        f'<rect x="0" y="1" width="{width}" height="{height - 2}"'
        f' fill="#eef1f5"/>{"".join(rects)}</svg>'
    )


def render_report_html(report: dict, top_anomalies: int = 10) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>Ops report — {report['suite']} [{report['label']}]</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Ops report — {report['suite']} [{report['label']}]</h1>",
        '<p class="meta">Generated by <code>repro bench run</code> from a'
        " deterministic simulated run. Frame budget"
        f" {_fmt(report['budget_ms'])} ms · SLO target"
        f" {_fmt(report['slo_target'] * 100.0, 1)}% miss · sample interval"
        f" {_fmt(report['sample_interval_ms'], 0)} ms · environment:"
        " {python} ({implementation}) on {platform}/{machine}, numpy"
        " {numpy}</p>".format(**report["environment"]),
    ]
    for name in sorted(report["scenarios"]):
        scenario = report["scenarios"][name]
        parts += _scenario_html(name, scenario, top_anomalies)
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def _scenario_html(name: str, scenario: dict, top_anomalies: int) -> list[str]:
    spec = scenario["spec"]
    slo = scenario["slo"]
    budget = scenario["budget"]
    ok = budget["exhausted_at_ms"] is None
    badge = (
        '<span class="badge ok">budget ok</span>'
        if ok
        else '<span class="badge bad">budget exhausted</span>'
    )
    parts = [
        f"<h2><code>{name}</code> {badge}</h2>",
        f'<p class="meta">{spec["system"]} on {spec["dataset"]} over'
        f' {spec["network"]} ({spec["frames"]} frames)</p>',
        "<h3>SLO &amp; error budget</h3>",
        "<table><tr><th>metric</th><th>value</th></tr>",
        f"<tr><td>frames measured</td><td>{slo['frames']}</td></tr>",
        f"<tr><td>deadline misses</td><td>{slo['misses']}"
        f" ({_fmt(slo['miss_rate'] * 100.0, 2)}%)</td></tr>",
        f"<tr><td>worst streak</td><td>{slo['worst_streak']}</td></tr>",
        f"<tr><td>latency p50 / p90 / p99</td><td>{_fmt(slo['latency_p50_ms'])}"
        f" / {_fmt(slo['latency_p90_ms'])} / {_fmt(slo['latency_p99_ms'])}"
        " ms</td></tr>",
        f"<tr><td>error budget</td><td>{_fmt(budget['allowed_misses'], 1)}"
        f" misses allowed, {_fmt(budget['consumed_fraction'] * 100.0, 1)}%"
        " consumed</td></tr>",
        f"<tr><td>burn rate (fast/slow, max)</td><td>"
        f"{_fmt(budget['max_fast_burn_rate'])} /"
        f" {_fmt(budget['max_slow_burn_rate'])}</td></tr>",
        f"<tr><td>budget exhausted at</td><td>{_fmt(budget['exhausted_at_ms'])}"
        f"{' ms' if budget['exhausted_at_ms'] is not None else ''}</td></tr>",
        "</table>",
    ]

    chart = _svg_burn_chart(budget)
    if chart:
        parts += ["<h3>Burn rate</h3>", chart]

    rows = _timeline_rows(scenario)
    if rows:
        parts += [
            "<h3>Timelines</h3>",
            "<table><tr><th>series</th><th>sparkline</th><th>min</th>"
            "<th>max</th><th>last</th></tr>",
        ]
        for series in rows:
            values = series["values"]
            parts.append(
                f"<tr><td><code>{series['name']}</code></td>"
                f"<td>{_svg_polyline(values)}</td>"
                f"<td>{_fmt(min(values))}</td><td>{_fmt(max(values))}</td>"
                f"<td>{_fmt(values[-1])}</td></tr>"
            )
        parts.append("</table>")

    sessions = scenario.get("sessions") or []
    if sessions:
        parts += [
            "<h3>Sessions</h3>",
            "<table><tr><th>session</th><th>timeline (red = degraded)</th>"
            "<th>admits</th><th>rejects</th><th>sheds</th>"
            "<th>degraded</th></tr>",
        ]
        for session in sessions:
            strip = _svg_session_strip(session, scenario["duration_ms"])
            parts.append(
                f"<tr><td class=\"mono\">s{session['session']}</td>"
                f"<td>{strip}</td><td>{session['admits']}</td>"
                f"<td>{session['rejects']}</td><td>{session['sheds']}</td>"
                f"<td>{_fmt(session.get('degraded_fraction', 0.0) * 100.0, 1)}%"
                "</td></tr>"
            )
        parts.append("</table>")

    anomalies = scenario.get("anomalies") or []
    parts.append("<h3>Top anomalies</h3>")
    if not anomalies:
        parts.append('<p class="meta">None detected.</p>')
    else:
        parts.append(
            "<table><tr><th>#</th><th>type</th><th>t (ms)</th><th>lane</th>"
            "<th>severity</th><th>detail</th></tr>"
        )
        for rank, anomaly in enumerate(anomalies[:top_anomalies], start=1):
            parts.append(
                f"<tr><td>{rank}</td><td>{anomaly['type']}</td>"
                f"<td>{_fmt(anomaly['ts_ms'], 1)}</td>"
                f"<td>{anomaly.get('lane', '—')}</td>"
                f"<td>{_fmt(anomaly.get('severity'))}</td>"
                f"<td>{_anomaly_detail(anomaly)}</td></tr>"
            )
        parts.append("</table>")
        if len(anomalies) > top_anomalies:
            parts.append(
                f'<p class="meta">… and {len(anomalies) - top_anomalies}'
                " more.</p>"
            )
    return parts


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def report_filename(suite: str, label: str, fmt: str) -> str:
    return f"REPORT_{suite}_{label}.{fmt}"


def write_report(
    report: dict, out_dir: str | Path, formats=("md", "html")
) -> list[Path]:
    """Write the selected renderings; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "md":
            text = render_report_markdown(report)
        elif fmt == "html":
            text = render_report_html(report)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
        path = out_dir / report_filename(report["suite"], report["label"], fmt)
        path.write_text(text)
        written.append(path)
    return written
