"""Deadline-aware edge fleet serving: server pool, scheduling policies,
admission control and MAMT-fallback degradation.

See ``docs/serving.md`` for the policy semantics, the degrade/recover
state machine and the ``serve.*`` observability surface.
"""

from .admission import (
    ADMIT,
    REJECT_INFEASIBLE,
    REJECT_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from .batching import BatchConfig, estimate_batch_ms
from .degrade import DegradeConfig, DegradeManager, SessionHealth
from .policy import (
    POLICY_NAMES,
    EarliestDeadlineFirstPolicy,
    LeastQueuePolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    make_policy,
)
from .scheduler import (
    FIFO_DEADLINE_HORIZON,
    FIFO_POLICY,
    FIFO_QUEUE_LIMIT,
    REJECT_NO_REPLICA,
    FleetScheduler,
    ServeItem,
    ServeOutcome,
    ServerPool,
    ServerReplica,
    fifo_scheduler,
)

__all__ = [
    "ADMIT",
    "REJECT_INFEASIBLE",
    "REJECT_QUEUE_FULL",
    "REJECT_NO_REPLICA",
    "FIFO_POLICY",
    "FIFO_QUEUE_LIMIT",
    "FIFO_DEADLINE_HORIZON",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BatchConfig",
    "estimate_batch_ms",
    "DegradeConfig",
    "DegradeManager",
    "SessionHealth",
    "POLICY_NAMES",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastQueuePolicy",
    "EarliestDeadlineFirstPolicy",
    "make_policy",
    "FleetScheduler",
    "ServeItem",
    "ServeOutcome",
    "ServerPool",
    "ServerReplica",
    "fifo_scheduler",
]
