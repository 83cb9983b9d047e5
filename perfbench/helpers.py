"""Pure helpers of the benchmark, kept free of ``repro`` imports so the
tests can exercise them without running a workload.

* :class:`SelfTimer` accounts host self-time per layer over nested
  wrapped calls.
* :func:`percentile` estimates a quantile; :func:`samples_beyond` and
  :func:`highest_percentile` implement the tail rule: report the highest
  percentile that still has at least ten samples beyond it.
* The ``check_*`` functions are the output checks every run applies;
  each returns a list of human-readable failures (empty = pass).
* :func:`sim_digest` hashes the per-frame simulated outcomes, so runs of
  one commit can show that every simulated statistic is identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np
from scipy.special import betainc

# Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_SAMPLES_BEYOND = 10

# Request counters the scheduler and the per-tenant meter both keep.
REQUEST_COUNTERS = (
    "submitted",
    "admitted",
    "rejected_queue_full",
    "rejected_infeasible",
    "rejected_no_replica",
    "shed",
    "displaced",
    "completed",
)
TELESCOPE_TOLERANCE_MS = 1e-6


class SelfTimer:
    """Host self-time per layer over nested wrapped calls.

    A wrapped call's self-time is its duration minus the time spent in
    wrapped calls it made, so the layers' totals never double count and
    their sum equals the time covered by outermost wrapped calls.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list[float]] = []  # [start, time in wrapped children]

    def wrap(self, layer: str, fn, name: str | None = None, on_return=None):
        """Return ``fn`` timed as part of ``layer``.

        ``name`` keys the call counter (default: the layer); ``on_return``
        sees each result inside the timed region.
        """
        key = name or layer
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def total_s(self) -> float:
        return sum(self.self_s.values())


# ----------------------------------------------------------------------
# Tail percentiles
# ----------------------------------------------------------------------
def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile.

    A Beta-weighted mean of all order statistics, centred on the
    nearest rank.  Simulated latencies take a handful of discrete values
    (one per frame outcome), so a single order statistic jumps between
    two of them whenever the share of slow frames crosses ``1 - p``;
    the weighted estimate moves with that share instead.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    q = p / 100.0
    cdf = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ ordered)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - _rank(n, p)


def highest_percentile(
    n: int, candidates=TAIL_CANDIDATES, min_beyond: int = MIN_SAMPLES_BEYOND
) -> float | None:
    """The highest candidate percentile with ``min_beyond`` samples past
    it, or None when even the lowest candidate has too few."""
    for p in candidates:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_frames(results, num_frames: int) -> list[str]:
    """Every client shows every frame, IoUs lie in [0, 1] and display
    latencies are finite and non-negative."""
    failures = []
    for index, result in enumerate(results):
        indices = [frame.frame_index for frame in result.frames]
        if indices != list(range(num_frames)):
            failures.append(
                f"client {index}: {len(indices)} frames, expected {num_frames}"
            )
        for frame in result.frames:
            if not (math.isfinite(frame.latency_ms) and frame.latency_ms >= 0.0):
                failures.append(
                    f"client {index} frame {frame.frame_index}: "
                    f"latency {frame.latency_ms!r}"
                )
                break
            if any(not 0.0 <= iou <= 1.0 for iou in frame.object_ious.values()):
                failures.append(
                    f"client {index} frame {frame.frame_index}: IoU outside [0, 1]"
                )
                break
    return failures


def check_scheduler(stats: dict) -> list[str]:
    """Scheduler accounting reconciles, and so do the per-tenant meters
    against the fleet's ``serve.*`` totals."""
    failures = []
    rejected = (
        stats["rejected_queue_full"]
        + stats["rejected_infeasible"]
        + stats["rejected_no_replica"]
    )
    if stats["submitted"] != stats["admitted"] + rejected:
        failures.append(
            f"submitted {stats['submitted']} != admitted {stats['admitted']}"
            f" + rejected {rejected}"
        )
    settled = stats["completed"] + stats["shed"] + stats["left_in_queue"]
    if stats["admitted"] != settled:
        failures.append(
            f"admitted {stats['admitted']} != completed + shed + left_in_queue"
            f" {settled}"
        )
    per_tenant = stats.get("tenancy", {}).get("per_tenant")
    if per_tenant is not None:
        for key in REQUEST_COUNTERS:
            metered = sum(entry[key] for entry in per_tenant.values())
            if metered != stats[key]:
                failures.append(f"tenants meter {key}={metered}, fleet {stats[key]}")
    return failures


def check_offloads(sent: int, delivered: int, stats: dict | None) -> list[str]:
    """Deliveries never exceed offloads, and the scheduler saw every one."""
    failures = []
    if not 0 <= delivered <= sent:
        failures.append(f"{delivered} results delivered for {sent} offloads")
    if stats is not None and stats["submitted"] != sent:
        failures.append(f"scheduler saw {stats['submitted']} of {sent} offloads")
    return failures


def check_telescoping(lineages) -> list[str]:
    """Each request's exclusive segments sum to its end-to-end latency."""
    failures = []
    for lineage in lineages:
        total = sum(lineage.segments.values())
        if abs(total - lineage.e2e_ms) > TELESCOPE_TOLERANCE_MS or any(
            value < -TELESCOPE_TOLERANCE_MS for value in lineage.segments.values()
        ):
            failures.append(
                f"lineage {lineage.trace_id}: segments {total!r} "
                f"!= e2e {lineage.e2e_ms!r}"
            )
    return failures


# ----------------------------------------------------------------------
# Simulated-outcome digest
# ----------------------------------------------------------------------
def sim_digest(results, offload_outcomes: dict) -> str:
    """Hash of every per-frame simulated latency, IoU and offload flag,
    plus the run's offload outcome counts."""
    payload = {
        "clients": [
            [
                [
                    frame.frame_index,
                    f"{frame.latency_ms:.9f}",
                    sorted((key, f"{iou:.9f}") for key, iou in frame.object_ious.items()),
                    frame.client_processed,
                    frame.offloaded,
                    frame.num_rendered,
                ]
                for frame in result.frames
            ]
            for result in results
        ],
        "offloads": offload_outcomes,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
