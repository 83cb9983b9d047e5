"""Noise-aware BENCH comparison and trajectory aggregation.

:func:`compare_payloads` classifies every gated metric of two BENCH
artifacts as **improved / regressed / neutral** using per-metric
relative thresholds *and* minimum-effect floors, so a 3% wobble on a
0.2 ms stage or a one-byte payload change never trips the gate.  The
``repro bench compare`` command exits non-zero when anything regresses,
naming the offending metric path (which embeds the stage name).

:func:`render_trend_markdown` folds every ``BENCH_*.json`` in a results
directory into a markdown trend table — the repo's machine-readable perf
trajectory (``repro bench trend`` regenerates ``results/README.md``
from it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MetricPolicy",
    "policy_for",
    "iter_metric_paths",
    "compare_payloads",
    "render_comparison",
    "load_bench_dir",
    "render_trend_markdown",
    "write_trend_report",
]


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is gated."""

    higher_is_better: bool
    rel_threshold: float  # minimum relative change to flag
    min_effect: float  # minimum absolute change to flag (noise floor)


# Policies are matched on the final path component.  Latencies gate at
# 5% with a 0.25 ms floor; rates at an absolute 2-point floor; bytes at
# 10%/2 KiB; IoU (higher-is-better) at 2%/0.005.  Error-budget burn
# gates at a coarse grain (burn rates are ratios of small counts, so
# they get a wide 0.5 absolute floor; consumed fraction a 5-point one).
_MS_POLICY = MetricPolicy(False, 0.05, 0.25)
_RATE_POLICY = MetricPolicy(False, 0.10, 0.02)
_BYTES_POLICY = MetricPolicy(False, 0.10, 2048.0)
_STREAK_POLICY = MetricPolicy(False, 0.25, 2.0)
_IOU_POLICY = MetricPolicy(True, 0.02, 0.005)
_BUDGET_POLICY = MetricPolicy(False, 0.10, 0.05)
_BURN_POLICY = MetricPolicy(False, 0.25, 0.5)
# Kernel speedups are wall-clock ratios: noise partially cancels in the
# ratio, but CI machines still wobble — gate only a real collapse (a
# >=60% relative drop, and at least 1x absolute).  A reverted
# vectorization drops a 3x+ ratio to ~1 (-67% or worse), which flags;
# cross-host noise halving a speedup does not.  Note the micro gate must
# run at threshold scale 1: a drop in a positive ratio is bounded at
# -100%, so any scale >= 2 makes it ungateable.
_SPEEDUP_POLICY = MetricPolicy(True, 0.60, 1.0)
# Miss-cause accounting: unclassified misses must stay at zero (any
# growth is a classifier hole — tight 0.5 absolute floor); per-cause
# counts are small integers, so gate only a real shift (>=25% and >=2
# misses moving to a cause).
_UNCLASSIFIED_POLICY = MetricPolicy(False, 0.25, 0.5)
_CAUSE_COUNT_POLICY = MetricPolicy(False, 0.25, 2.0)
# Certification verdicts (chaos cells, tenant suites) are booleans cast
# to 0/1: any flip from certified to not is a full-size change, so the
# 0.5 floors flag exactly that and nothing else.
_CERTIFIED_POLICY = MetricPolicy(True, 0.5, 0.5)


def policy_for(path: str) -> MetricPolicy | None:
    """Gating policy for a metric path; None = informational only."""
    leaf = path.rsplit(".", 1)[-1]
    if ".miss_causes." in path:
        if leaf == "unclassified":
            return _UNCLASSIFIED_POLICY
        return _CAUSE_COUNT_POLICY
    if leaf == "certified":
        return _CERTIFIED_POLICY
    if ".tenants.per_tenant." in path and leaf in ("shed", "displaced"):
        return _CAUSE_COUNT_POLICY
    if leaf == "mean_iou":
        return _IOU_POLICY
    if leaf == "worst_streak":
        return _STREAK_POLICY
    if leaf in ("bytes_up", "bytes_down"):
        return _BYTES_POLICY
    if leaf == "consumed_fraction":
        return _BUDGET_POLICY
    if leaf.endswith("_burn_rate"):
        return _BURN_POLICY
    if leaf == "miss_rate" or leaf.startswith("false_rate"):
        return _RATE_POLICY
    if leaf == "speedup_x":
        return _SPEEDUP_POLICY
    if leaf.endswith("_ms"):
        return _MS_POLICY
    return None


def iter_metric_paths(payload: dict):
    """Yield ``(path, value)`` for every gated metric of a BENCH payload.

    Paths look like ``wifi5-walk.stages.server0/server.infer.p50_ms`` —
    the scenario and stage names ride along so a regression report names
    the stage that regressed.
    """
    for scenario_name in sorted(payload.get("scenarios", {})):
        scenario = payload["scenarios"][scenario_name]
        result = scenario.get("result", {})
        for key in (
            "mean_iou",
            "false_rate_75",
            "false_rate_50",
            "mean_latency_ms",
            "bytes_up",
            "bytes_down",
        ):
            if key in result:
                yield f"{scenario_name}.result.{key}", float(result[key])
        slo = scenario.get("slo", {})
        for key in (
            "miss_rate",
            "worst_streak",
            "total_over_ms",
            "max_over_ms",
            "latency_p50_ms",
            "latency_p90_ms",
            "latency_p99_ms",
        ):
            if key in slo:
                yield f"{scenario_name}.slo.{key}", float(slo[key])
        budget = scenario.get("budget", {})
        for key in (
            "consumed_fraction",
            "max_fast_burn_rate",
            "max_slow_burn_rate",
        ):
            # NaN (empty trace) is not comparable — skip it.
            if key in budget and budget[key] == budget[key]:
                yield f"{scenario_name}.budget.{key}", float(budget[key])
        causes = scenario.get("miss_causes", {})
        if causes:
            yield (
                f"{scenario_name}.miss_causes.unclassified",
                float(causes.get("unclassified", 0)),
            )
            for cause in sorted(causes.get("causes", {})):
                yield (
                    f"{scenario_name}.miss_causes.causes.{cause}",
                    float(causes["causes"][cause]),
                )
        for stage_name in sorted(scenario.get("stages", {})):
            stats = scenario["stages"][stage_name]
            for key in ("mean_ms", "p50_ms", "p90_ms", "p99_ms"):
                if key in stats:
                    yield f"{scenario_name}.stages.{stage_name}.{key}", float(
                        stats[key]
                    )
        kernel = scenario.get("kernel", {})
        if "speedup_x" in kernel:
            yield f"{scenario_name}.kernel.speedup_x", float(kernel["speedup_x"])
        tenants = scenario.get("tenants", {})
        for tenant_name in sorted(tenants.get("per_tenant", {})):
            entry = tenants["per_tenant"][tenant_name]
            prefix = f"{scenario_name}.tenants.per_tenant.{tenant_name}"
            for key in ("shed", "displaced"):
                if key in entry:
                    yield f"{prefix}.{key}", float(entry[key])
            tenant_slo = entry.get("slo", {})
            for key in (
                "miss_rate",
                "worst_streak",
                "latency_p50_ms",
                "latency_p99_ms",
            ):
                value = tenant_slo.get(key)
                # NaN (tenant with no measured frames) is not comparable.
                if value is not None and value == value:
                    yield f"{prefix}.slo.{key}", float(value)
        chaos = scenario.get("chaos", {})
        if "certified" in chaos:
            yield (
                f"{scenario_name}.chaos.certified",
                float(bool(chaos["certified"])),
            )
    certification = payload.get("certification")
    if certification is not None:
        yield (
            "certification.certified",
            float(bool(certification.get("certified"))),
        )


def _classify(
    old: float, new: float, policy: MetricPolicy, threshold_scale: float
) -> tuple[str, float]:
    """(classification, relative change).  Both the relative threshold
    and the absolute floor must be cleared to leave 'neutral'."""
    delta = new - old
    relative = delta / abs(old) if old else (float("inf") if delta else 0.0)
    if (
        abs(delta) < policy.min_effect * threshold_scale
        or abs(relative) < policy.rel_threshold * threshold_scale
    ):
        return "neutral", relative
    worse = delta < 0 if policy.higher_is_better else delta > 0
    return ("regressed" if worse else "improved"), relative


def compare_payloads(
    old: dict, new: dict, threshold_scale: float = 1.0
) -> dict:
    """Compare two BENCH payloads metric by metric.

    ``threshold_scale`` loosens (>1) or tightens (<1) every policy
    uniformly — the CI gate runs loose so only real regressions fail it.
    Raises ``ValueError`` on schema mismatch.
    """
    old_version = old.get("schema_version")
    new_version = new.get("schema_version")
    if old_version != new_version:
        raise ValueError(
            f"schema_version mismatch: old={old_version!r} new={new_version!r}"
            " — regenerate the baseline artifact"
        )
    old_metrics = dict(iter_metric_paths(old))
    new_metrics = dict(iter_metric_paths(new))
    entries = []
    regressed, improved = [], []
    for path in sorted(old_metrics.keys() & new_metrics.keys()):
        policy = policy_for(path)
        if policy is None:
            continue
        classification, relative = _classify(
            old_metrics[path], new_metrics[path], policy, threshold_scale
        )
        entries.append(
            {
                "metric": path,
                "old": old_metrics[path],
                "new": new_metrics[path],
                "relative": relative,
                "classification": classification,
            }
        )
        if classification == "regressed":
            regressed.append(path)
        elif classification == "improved":
            improved.append(path)
    return {
        "schema_version": old_version,
        "threshold_scale": threshold_scale,
        "old_label": old.get("label"),
        "new_label": new.get("label"),
        "metrics": entries,
        "regressed": regressed,
        "improved": improved,
        "neutral_count": sum(
            1 for e in entries if e["classification"] == "neutral"
        ),
        "missing": sorted(old_metrics.keys() - new_metrics.keys()),
        "added": sorted(new_metrics.keys() - old_metrics.keys()),
    }


def render_comparison(report: dict):
    """Non-neutral rows as a text table (plus a one-line summary)."""
    # Imported here: ``repro.eval`` imports the runtime, which imports
    # this package — a module-level import would be circular.
    from ..eval.reporting import Table

    table = Table(
        f"bench comparison — {report.get('old_label')} vs {report.get('new_label')} "
        f"(threshold x{report.get('threshold_scale')})",
        ["metric", "old", "new", "rel %", "verdict"],
    )
    for entry in report["metrics"]:
        if entry["classification"] == "neutral":
            continue
        table.add_row(
            entry["metric"],
            entry["old"],
            entry["new"],
            entry["relative"] * 100.0,
            entry["classification"].upper(),
        )
    return table


# ----------------------------------------------------------------------
# Trajectory aggregation
# ----------------------------------------------------------------------
def load_bench_dir(results_dir: str | Path) -> list[tuple[str, dict]]:
    """All ``BENCH_*.json`` artifacts in a directory, sorted by filename
    for a deterministic trend report."""
    results_dir = Path(results_dir)
    entries = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        entries.append((path.name, json.loads(path.read_text())))
    return entries


def render_trend_markdown(entries: list[tuple[str, dict]]) -> str:
    """Fold BENCH artifacts into the markdown trend report."""
    lines = [
        "# Benchmark trajectory",
        "",
        "Machine-readable perf history of this repo: one row per"
        " (artifact, scenario) from every `BENCH_*.json` in this"
        " directory.",
        "",
        "*Generated by `python -m repro.eval.cli bench trend` — do not"
        " edit by hand.  See [docs/observability.md](../docs/observability.md)"
        " for the BENCH schema and SLO semantics.*",
        "",
    ]
    if not entries:
        lines.append("No `BENCH_*.json` artifacts found.")
        lines.append("")
        return "\n".join(lines)
    header = (
        "| artifact | suite | label | scenario | mean IoU | frame p50 ms |"
        " frame p99 ms | miss rate | worst streak | offloads | KiB up |"
    )
    lines.append(header)
    lines.append("|" + "---|" * 11)
    kernel_rows = []
    for filename, payload in entries:
        for scenario_name in sorted(payload.get("scenarios", {})):
            scenario = payload["scenarios"][scenario_name]
            kernel = scenario.get("kernel")
            if kernel is not None:
                kernel_rows.append(
                    "| {file} | {name} | {n} | {vec} | {ref} | {speed} |"
                    " {equiv} |".format(
                        file=filename,
                        name=kernel.get("name", scenario_name),
                        n=kernel.get("n", 0),
                        vec=kernel.get("vectorized_us", "-"),
                        ref=kernel.get("reference_us", "-"),
                        speed=kernel.get("speedup_x", "-"),
                        equiv="yes" if kernel.get("equivalent") else "NO",
                    )
                )
                continue
            result = scenario.get("result", {})
            slo = scenario.get("slo", {})
            offload = scenario.get("offload", {})
            lines.append(
                "| {file} | {suite} | {label} | {scen} | {iou:.3f} |"
                " {p50:.2f} | {p99:.2f} | {miss:.3f} | {streak} |"
                " {offloads} | {kib:.1f} |".format(
                    file=filename,
                    suite=payload.get("suite", "?"),
                    label=payload.get("label", "?"),
                    scen=scenario_name,
                    iou=result.get("mean_iou", 0.0),
                    p50=slo.get("latency_p50_ms", 0.0),
                    p99=slo.get("latency_p99_ms", 0.0),
                    miss=slo.get("miss_rate", 0.0),
                    streak=slo.get("worst_streak", 0),
                    offloads=offload.get("offload_count", 0),
                    kib=offload.get("bytes_up", 0) / 1024.0,
                )
            )
    if kernel_rows:
        lines.append("")
        lines.append("## Kernel micro-benchmarks")
        lines.append("")
        lines.append(
            "Vectorized hot paths vs their scalar `_reference`"
            " implementations (see [docs/performance.md]"
            "(../docs/performance.md))."
        )
        lines.append("")
        lines.append(
            "| artifact | kernel | n | vectorized µs | reference µs |"
            " speedup | equivalent |"
        )
        lines.append("|" + "---|" * 7)
        lines.extend(kernel_rows)
    lines.append("")
    return "\n".join(lines)


def write_trend_report(
    results_dir: str | Path, out_path: str | Path | None = None
) -> Path:
    """Regenerate the trend report from a results directory."""
    results_dir = Path(results_dir)
    out_path = (
        Path(out_path) if out_path is not None else results_dir / "README.md"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render_trend_markdown(load_bench_dir(results_dir)))
    return out_path
