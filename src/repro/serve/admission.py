"""Admission control for the edge fleet scheduler.

Every offload request carries a hard deadline — the last simulated
moment its result can still influence a displayed frame, derived from
the pipeline's ``deadline_budget_ms`` (one frame interval by default)
times a usefulness horizon measured in frame budgets.  The paper's
deployment is one unbounded, deadline-blind FIFO queue; the scheduler's
FIFO configuration (:func:`repro.serve.scheduler.fifo_scheduler`) sets
the bound and the horizon beyond reach, so this controller admits
everything.  Otherwise the controller keeps a bounded, deadline-checked
queue:

* **queue bound** — a replica never holds more than ``queue_limit``
  waiting requests; an arrival that finds the queue full is *rejected*
  outright (the client is told immediately and keeps rendering through
  MAMT);
* **feasibility** — an arrival whose estimated completion (queue backlog
  plus one inference plus the result downlink) already overshoots its
  deadline is rejected as infeasible instead of wasting queue space;
* **shedding** — a queued request whose deadline can no longer be met
  by the time the GPU would actually start it is dropped at dispatch
  time, so a saturated server spends cycles only on results that can
  still be displayed.

Estimates use a per-replica exponential moving average of observed
inference times, seeded from a configurable prior; everything is
deterministic, so fleet benchmarks remain byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AdmissionConfig", "AdmissionDecision", "AdmissionController"]

ADMIT = "admit"
REJECT_QUEUE_FULL = "reject-queue-full"
REJECT_INFEASIBLE = "reject-infeasible"


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller."""

    # Max *waiting* requests per replica (the in-flight inference rides
    # on top of this).
    queue_limit: int = 4
    # A result is useful for this many frame budgets after the client
    # shipped the request; past that the display has moved on and MAMT
    # is extrapolating from history anyway.
    deadline_horizon: float = 12.0
    # Reject arrivals whose estimated completion misses their deadline.
    reject_infeasible: bool = True
    # Prior for the per-replica inference-time estimate (ms) and the EMA
    # smoothing factor applied as observations come in.
    est_infer_prior_ms: float = 350.0
    est_infer_alpha: float = 0.3
    # Flat allowance for the result downlink in feasibility estimates.
    est_downlink_ms: float = 8.0


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    status: str  # ADMIT | REJECT_QUEUE_FULL | REJECT_INFEASIBLE
    est_completion_ms: float

    @property
    def admitted(self) -> bool:
        return self.status == ADMIT


class AdmissionController:
    """Bounded, deadline-checked admission in front of a replica queue."""

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config or AdmissionConfig()

    def deadline_for(self, send_ms: float, budget_ms: float) -> float:
        """Absolute deadline of a request shipped at ``send_ms``."""
        return send_ms + self.config.deadline_horizon * budget_ms

    def estimate_completion(self, item, replica, now_ms: float) -> float:
        """Estimated completion were ``item`` appended to ``replica``."""
        start = max(item.arrive_ms, replica.server.free_at_ms, now_ms)
        return (
            start
            + replica.backlog_ms(now_ms)
            + replica.est_infer_ms
            + self.config.est_downlink_ms
        )

    def check(self, item, replica, now_ms: float) -> AdmissionDecision:
        """Admit, or reject with the reason, one arriving request."""
        est = self.estimate_completion(item, replica, now_ms)
        if len(replica.queue) >= self.config.queue_limit:
            return AdmissionDecision(REJECT_QUEUE_FULL, est)
        if self.config.reject_infeasible and est > item.deadline_ms:
            return AdmissionDecision(REJECT_INFEASIBLE, est)
        return AdmissionDecision(ADMIT, est)

    def should_shed(self, item, start_ms: float, est_infer_ms: float) -> bool:
        """True when a queued request picked at ``start_ms`` can no
        longer complete before its deadline — drop it unrun."""
        return (
            start_ms + est_infer_ms + self.config.est_downlink_ms
            > item.deadline_ms
        )
