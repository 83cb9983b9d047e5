"""BENCH artifact format: versioned, byte-deterministic suite payloads.

A suite run (:func:`repro.eval.suites.run_suite`) folds every traced
cell into one ``BENCH_<suite>_<label>.json`` payload containing:

* the shared ``result_payload`` summary (IoU, false rates, latency,
  bytes) per scenario;
* per-stage latency percentiles (:func:`stage_percentiles`) — exact
  p50/p90/p99 from the full per-span sample sets, plus the fixed-bucket
  :meth:`Histogram.percentile` estimate so the two can be reconciled;
* the frame-deadline SLO report (:mod:`repro.obs.slo`): miss rate,
  worst streak, per-stage budget attribution;
* offload/bandwidth counters (CFRS decisions, server requests, bytes);
* an environment fingerprint (:func:`environment_fingerprint`).

This module owns the serialized form.  Because the pipeline runs on a
simulated clock, a suite is fully deterministic: two runs on the same
machine produce **byte-identical** artifacts (:func:`dump_bench` after
:func:`strip_timing`), so BENCH files can be committed, diffed and
regression-gated (see :mod:`repro.obs.compare` and ``repro bench
compare``).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from .metrics import Histogram
from .slo import exact_percentile
from .trace import Tracer

__all__ = [
    "environment_fingerprint",
    "stage_percentiles",
    "bench_filename",
    "dump_bench",
    "strip_timing",
    "write_bench",
]


def environment_fingerprint() -> dict:
    """Where the suite ran — stable across runs on one machine, so it
    does not break byte-identical artifacts; differs across machines so
    cross-host comparisons are explainable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": np.__version__,
    }


def stage_percentiles(tracer: Tracer) -> dict[str, dict]:
    """``"lane/stage" -> latency stats`` over every span of the trace.

    p50/p90/p99 are exact (full sample set retained); ``hist_p90_ms`` /
    ``hist_p99_ms`` are the fixed-bucket :meth:`Histogram.percentile`
    estimates of the same distribution, kept alongside so drift between
    the streaming estimator and ground truth is itself observable.
    """
    samples: dict[str, list[float]] = {}
    for span in tracer.spans:
        samples.setdefault(f"{span.lane}/{span.name}", []).append(span.dur_ms)
    stages: dict[str, dict] = {}
    for key in sorted(samples):
        durations = samples[key]
        hist = Histogram(key)
        for value in durations:
            hist.observe(value)
        stages[key] = {
            "count": len(durations),
            "total_ms": round(sum(durations), 6),
            "mean_ms": round(sum(durations) / len(durations), 6),
            "p50_ms": round(exact_percentile(durations, 50.0), 6),
            "p90_ms": round(exact_percentile(durations, 90.0), 6),
            "p99_ms": round(exact_percentile(durations, 99.0), 6),
            "max_ms": round(max(durations), 6),
            "hist_p90_ms": round(hist.percentile(90.0), 6),
            "hist_p99_ms": round(hist.percentile(99.0), 6),
        }
    return stages


def bench_filename(suite: str, label: str) -> str:
    return f"BENCH_{suite}_{label}.json"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dump_bench(payload: dict) -> str:
    """Canonical serialized form — sorted keys, so equal payloads are
    byte-identical files."""
    return (
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
        + "\n"
    )


def strip_timing(payload: dict) -> dict:
    """A deep copy of a BENCH payload without the wall-clock fields of
    kernel cells — the part of the artifact covered by the byte-identity
    contract (everything a simulated-clock run fully determines)."""
    from copy import deepcopy

    from .kernelbench import TIMING_KEYS

    stripped = deepcopy(payload)
    for scenario in stripped.get("scenarios", {}).values():
        kernel = scenario.get("kernel")
        if kernel:
            for key in TIMING_KEYS:
                kernel.pop(key, None)
    return stripped


def write_bench(payload: dict, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bench_filename(payload["suite"], payload["label"])
    path.write_text(dump_bench(payload))
    return path
