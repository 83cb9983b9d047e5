"""Load-balancing policies for the edge fleet scheduler.

A policy answers two questions:

* **placement** — which :class:`~repro.serve.scheduler.ServerReplica`
  should a newly arrived offload request be bound to?
* **service order** — in what order does a replica drain its queue once
  the GPU frees up?

Three built-in policies cover the design space the serving literature
keeps converging on:

* ``round_robin`` — placement ignores load entirely (the classic
  strawman, and the right thing when replicas are identical and requests
  uniform); its FIFO service order makes it the policy of the paper's
  deployment (``FIFO_POLICY``);
* ``least_queue`` — place on the replica with the smallest backlog
  (queue length, then estimated backlog milliseconds);
* ``edf`` — deadline-aware: place on the replica with the earliest
  *estimated completion* for this request, and drain each queue
  earliest-deadline-first instead of FIFO, so a request that still has
  slack never blocks one about to expire.

All policies are deterministic: ties break on replica index and
admission sequence number, never on iteration order of a set or dict.
"""

from __future__ import annotations

__all__ = [
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastQueuePolicy",
    "EarliestDeadlineFirstPolicy",
    "POLICY_NAMES",
    "make_policy",
]


class SchedulingPolicy:
    """Base class: FIFO service order, abstract placement."""

    name = "abstract"

    def choose(self, item, replicas, now_ms: float):
        """Pick the replica a new request is bound to."""
        raise NotImplementedError

    def service_key(self, item):
        """Sort key for draining a replica's queue (smallest first)."""
        return (item.seq,)  # FIFO


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through replicas regardless of their load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, item, replicas, now_ms: float):
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class LeastQueuePolicy(SchedulingPolicy):
    """Place on the replica with the smallest backlog."""

    name = "least_queue"

    def choose(self, item, replicas, now_ms: float):
        return min(
            replicas,
            key=lambda r: (len(r.queue), r.backlog_ms(now_ms), r.index),
        )


class EarliestDeadlineFirstPolicy(SchedulingPolicy):
    """Deadline-aware placement + earliest-deadline-first service order."""

    name = "edf"

    def choose(self, item, replicas, now_ms: float):
        def estimated_completion(replica):
            start = max(item.arrive_ms, replica.server.free_at_ms, now_ms)
            return start + replica.backlog_ms(now_ms) + replica.est_infer_ms

        return min(
            replicas, key=lambda r: (estimated_completion(r), r.index)
        )

    def service_key(self, item):
        # Identical deadlines tie-break on (session, frame) — stable
        # request identity — rather than admission order, so the drain
        # order is a pure function of the workload, not of submission
        # interleaving.
        return (item.deadline_ms, item.session_index, item.frame_index)


_POLICY_FACTORIES = {
    "round_robin": RoundRobinPolicy,
    "least_queue": LeastQueuePolicy,
    "edf": EarliestDeadlineFirstPolicy,
}

POLICY_NAMES = tuple(sorted(_POLICY_FACTORIES))


def make_policy(name: str) -> SchedulingPolicy:
    factory = _POLICY_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scheduling policy {name!r}; pick from {sorted(_POLICY_FACTORIES)}"
        )
    return factory()
