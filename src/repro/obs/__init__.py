"""Zero-dependency observability: metrics registry, span tracer and
trace exporters for the mobile/edge pipeline.

Everything here is process-local and deterministic in simulated-time
mode; see ``docs/observability.md`` for the API tour and export formats.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    RequestContext,
    Span,
    TraceEvent,
    Tracer,
)
from .lineage import (
    SEGMENT_ORDER,
    RequestLineage,
    build_lineages,
    server_index_for_lane,
)
from .critical import (
    CAUSES,
    build_why,
    classify_misses,
    miss_causes,
    render_waterfall,
    why_filename,
    write_why,
)
from .export import (
    FRAME_LATENCY_SPANS,
    chrome_trace,
    mean_frame_latency_ms,
    stage_summary,
    stage_table,
    to_jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)
from .slo import FRAME_BUDGET_MS, evaluate_slo, exact_percentile, frame_latency_spans
from .timeline import (
    DEFAULT_SAMPLE_INTERVAL_MS,
    TimelineSampler,
    TimelineSeries,
    detect_latency_spikes,
    detect_queue_growth,
)
from .budget import (
    DEFAULT_SLO_TARGET,
    FAST_BURN_WINDOW_MS,
    SLOW_BURN_WINDOW_MS,
    BurnRateTracker,
    detect_budget_exhaustion,
    evaluate_error_budget,
    session_timelines,
)
from .bench import (
    bench_filename,
    dump_bench,
    stage_percentiles,
    write_bench,
)
from .report import (
    build_report,
    render_report_html,
    render_report_markdown,
    report_filename,
    write_report,
)
from .compare import (
    compare_payloads,
    load_bench_dir,
    render_comparison,
    render_trend_markdown,
    write_trend_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RequestContext",
    "SEGMENT_ORDER",
    "RequestLineage",
    "build_lineages",
    "server_index_for_lane",
    "CAUSES",
    "build_why",
    "classify_misses",
    "miss_causes",
    "render_waterfall",
    "why_filename",
    "write_why",
    "FRAME_LATENCY_SPANS",
    "chrome_trace",
    "mean_frame_latency_ms",
    "stage_summary",
    "stage_table",
    "to_jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
    "FRAME_BUDGET_MS",
    "evaluate_slo",
    "exact_percentile",
    "frame_latency_spans",
    "DEFAULT_SAMPLE_INTERVAL_MS",
    "TimelineSampler",
    "TimelineSeries",
    "detect_latency_spikes",
    "detect_queue_growth",
    "DEFAULT_SLO_TARGET",
    "FAST_BURN_WINDOW_MS",
    "SLOW_BURN_WINDOW_MS",
    "BurnRateTracker",
    "detect_budget_exhaustion",
    "evaluate_error_budget",
    "session_timelines",
    "bench_filename",
    "dump_bench",
    "stage_percentiles",
    "write_bench",
    "build_report",
    "render_report_html",
    "render_report_markdown",
    "report_filename",
    "write_report",
    "compare_payloads",
    "load_bench_dir",
    "render_comparison",
    "render_trend_markdown",
    "write_trend_report",
]
