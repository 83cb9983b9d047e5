"""`repro.serve` — the one server topology: a scheduled fleet of edge servers.

Every run, single-client or fleet, reaches inference through a
:class:`FleetScheduler`.  The paper's deployment (one device against one
edge in Fig 9/11, eight devices sharing one Xavier in Section VI-G) is
its FIFO configuration (:func:`fifo_scheduler`): submission-order
service, no effective queue bound or deadline, no degradation.  The
policy layer on top of the same loop:

* :class:`ServerPool` — N ``EdgeServer`` replicas behind a pluggable
  placement policy (:mod:`repro.serve.policy`), each with its own
  bounded wait queue drained in the policy's service order;
* :class:`FleetScheduler` — the fleet control loop: admission control
  (:mod:`repro.serve.admission`), deadline shedding, and MAMT-fallback
  degradation (:mod:`repro.serve.degrade`), emitting first-class
  ``serve.admit/reject/shed/degrade/recover`` trace events and
  ``serve.*`` counters/gauges through :mod:`repro.obs`.

The scheduler runs on the pipeline's simulated clock.  Queues drain at
frame ticks: a pick is committed only once the simulated pick time is in
the past, so requests dispatched later in the run can never retroactively
jump a queue — two identical runs produce byte-identical schedules.  Work
still queued after the last tick is never served: its result could not
reach any frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..image.masks import InstanceMask
from ..obs.trace import NULL_TRACER, RequestContext, Tracer
from ..runtime.interface import OffloadRequest
from ..runtime.pipeline import EdgeServer
from ..tenancy.fairness import FairQueue
from ..tenancy.metering import TenantMeter
from ..tenancy.qos import QoSClass, TenantDirectory
from .admission import (
    ADMIT,
    REJECT_INFEASIBLE,
    REJECT_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
)
from .batching import BatchConfig, estimate_batch_ms
from .degrade import DegradeConfig, DegradeManager
from .policy import SchedulingPolicy, make_policy

__all__ = [
    "FIFO_DEADLINE_HORIZON",
    "FIFO_POLICY",
    "FIFO_QUEUE_LIMIT",
    "REJECT_NO_REPLICA",
    "ServeItem",
    "ServeOutcome",
    "ServerReplica",
    "ServerPool",
    "FleetScheduler",
    "fifo_scheduler",
]

# Submit status when every replica is dead (chaos kill_replica): nothing
# can be placed, so the client is bounced straight to MAMT fallback.
REJECT_NO_REPLICA = "reject-no-replica"

# The paper's deployment as a scheduler configuration: one FIFO queue in
# front of each GPU, unbounded and deadline-blind.  ``round_robin``
# serves in submission order (service key ``seq``); the queue bound and
# the deadline horizon (in frame budgets) are finite, so BENCH JSON stays
# free of Infinity, yet far beyond anything a run can queue or wait, so
# nothing is ever rejected or shed.  Degradation is off.
FIFO_POLICY = "round_robin"
FIFO_QUEUE_LIMIT = 10**9
FIFO_DEADLINE_HORIZON = 1e9

# A replica without batching: every dispatch is a batch of one, sent at
# its pick instant.
_UNBATCHED = BatchConfig(window_ms=0.0, max_size=1)


@dataclass
class ServeItem:
    """One offload request travelling through the scheduler."""

    seq: int
    session_index: int
    request: OffloadRequest
    truth_masks: list[InstanceMask]
    image_shape: tuple[int, int]
    send_ms: float  # client finished encoding
    arrive_ms: float  # after the uplink
    deadline_ms: float
    ctx: RequestContext | None = None
    # Tenancy attribution (multi-tenant fleets only; see repro.tenancy):
    # owning tenant, its QoS class, and the SFQ virtual start stamped at
    # submission — the strength of this item's claim on queue slots.
    tenant: str | None = None
    qos: QoSClass | None = None
    vstart: float = 0.0

    @property
    def frame_index(self) -> int:
        return self.request.frame_index


@dataclass
class ServeOutcome:
    """What the scheduler hands back to the pipeline for one item."""

    kind: str  # "complete" | "shed"
    item: ServeItem
    masks: list[InstanceMask] = field(default_factory=list)
    completion_ms: float = 0.0
    server_index: int = -1


class ServerReplica:
    """One ``EdgeServer`` plus its wait queue and latency estimate."""

    def __init__(
        self,
        index: int,
        server: EdgeServer,
        est_infer_ms: float,
        batching: BatchConfig = _UNBATCHED,
    ):
        self.index = index
        self.server = server
        self.queue: list[ServeItem] = []
        self.est_infer_ms = est_infer_ms
        # Chaos kill_replica flips this; dead replicas take no placements
        # and are skipped by the drain loop until revived.
        self.alive = True
        self.batching = batching
        self.completed = 0
        self.shed = 0
        self.batches = 0
        self.batched_items = 0

    def est_batch_ms(self, size: int) -> float:
        """Expected service time for a batch of ``size`` on this replica."""
        return estimate_batch_ms(
            self.est_infer_ms,
            self.server.batch_setup_ms(),
            size,
            self.batching.alpha,
        )

    def per_item_est_ms(self) -> float:
        """Expected per-item service cost of the queued backlog: the
        amortized full-batch cost (the solo estimate at ``max_size=1``)."""
        size = self.batching.max_size
        return self.est_batch_ms(size) / size

    def busy_ms_until(self, t_ms: float) -> float:
        """Service time spent by ``t_ms``: the total minus the tail of
        the one service (or batch) still running past ``t_ms`` — picks
        are committed only at ticks, so no later service has started."""
        server = self.server
        return server.busy_ms_total - max(0.0, server.free_at_ms - t_ms)

    def backlog_ms(self, now_ms: float) -> float:
        """Estimated work between now and this replica going idle.

        ``free_at_ms`` carries the remaining service time of whatever is
        in flight — including a running *batch*, whose completion moved
        it forward in one step — and the queued items are costed at the
        batching-aware per-item estimate, so ``least_queue`` placement
        stays accurate when batches amortize the fixed cost.
        """
        residual = max(0.0, self.server.free_at_ms - now_ms)
        return residual + self.per_item_est_ms() * len(self.queue)

    def est_completion_ms(self, item: ServeItem, now_ms: float) -> float:
        """Estimated completion were ``item`` appended to this replica."""
        start = max(item.arrive_ms, self.server.free_at_ms, now_ms)
        return start + self.backlog_ms(now_ms) + self.est_infer_ms

    def observe_infer(self, infer_ms: float, alpha: float) -> None:
        self.est_infer_ms = (1.0 - alpha) * self.est_infer_ms + alpha * infer_ms


class ServerPool:
    """N edge-server replicas behind one placement policy."""

    def __init__(
        self,
        servers: list[EdgeServer],
        policy: SchedulingPolicy | str = "edf",
        est_infer_prior_ms: float = 350.0,
        batching: BatchConfig = _UNBATCHED,
    ):
        if not servers:
            raise ValueError("ServerPool needs at least one EdgeServer")
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.replicas = [
            ServerReplica(index, server, est_infer_prior_ms, batching=batching)
            for index, server in enumerate(servers)
        ]
        for replica in self.replicas:
            replica.server.lane = f"server{replica.index}"

    def __len__(self) -> int:
        return len(self.replicas)

    def live_replicas(self) -> list[ServerReplica]:
        return [replica for replica in self.replicas if replica.alive]

    def choose(self, item: ServeItem, now_ms: float) -> ServerReplica:
        live = self.live_replicas()
        if not live:
            raise RuntimeError("no live replica to place on")
        return self.policy.choose(item, live, now_ms)

    def queue_depth(self) -> int:
        return sum(len(replica.queue) for replica in self.replicas)

    @property
    def busy_ms_total(self) -> float:
        return sum(replica.server.busy_ms_total for replica in self.replicas)

    def is_free_at(self, now_ms: float) -> bool:
        return any(
            replica.server.is_free_at(now_ms) and not replica.queue
            for replica in self.live_replicas()
        )


class FleetScheduler:
    """Admission control + deadline scheduling + MAMT-fallback degrade."""

    def __init__(
        self,
        servers: list[EdgeServer],
        policy: SchedulingPolicy | str = "edf",
        admission: AdmissionConfig | None = None,
        degrade: DegradeConfig | None = None,
        num_sessions: int = 0,
        tracer: Tracer | None = None,
        batching: BatchConfig | None = None,
        tenancy: TenantDirectory | None = None,
    ):
        self.admission = AdmissionController(admission)
        self.batching = (batching or _UNBATCHED).validate()
        self.pool = ServerPool(
            servers,
            policy,
            self.admission.config.est_infer_prior_ms,
            batching=self.batching,
        )
        # Tenancy (repro.tenancy): fair queueing + per-tenant metering,
        # and QoS-scaled degrade thresholds / recovery ranks below.
        self.tenancy = tenancy
        if tenancy is not None and num_sessions and tenancy.num_sessions != num_sessions:
            raise ValueError(
                f"tenant directory covers {tenancy.num_sessions} sessions "
                f"but the fleet has {num_sessions}"
            )
        self.fair = FairQueue(tenancy) if tenancy is not None else None
        self.meter = TenantMeter(tenancy) if tenancy is not None else None
        self.degrade_config = degrade or DegradeConfig()
        thresholds: dict[int, int] = {}
        recover_rank: dict[int, int] = {}
        if tenancy is not None:
            for index in range(tenancy.num_sessions):
                qos = tenancy.qos_of(index)
                thresholds[index] = max(
                    1,
                    round(self.degrade_config.failure_threshold * qos.degrade_scale),
                )
                recover_rank[index] = qos.priority
        self.degrade = DegradeManager(
            num_sessions,
            self.degrade_config,
            thresholds=thresholds,
            recover_rank=recover_rank,
        )
        self._next_seq = 0
        # Plain-int mirrors of the serve.* counters, kept so ``stats()``
        # reports real totals even when no tracer/registry is attached.
        self.counts = {
            "submitted": 0,
            "admitted": 0,
            "rejected_queue_full": 0,
            "rejected_infeasible": 0,
            "rejected_no_replica": 0,
            "shed": 0,
            "displaced": 0,
            "completed": 0,
            "batches": 0,
            "batched_items": 0,
            # Members of batches larger than one: the work that shared a
            # GPU call (``batched_items`` also counts singletons).
            "shared_items": 0,
            "batch_saved_ms": 0.0,
            "replica_kills": 0,
            "replica_revives": 0,
        }
        # Outcomes produced between ticks (e.g. queue items orphaned by a
        # chaos kill_replica), handed back at the next advance().
        self._pending_outcomes: list[ServeOutcome] = []
        self.attach_tracer(tracer if tracer is not None else NULL_TRACER)

    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Tracer) -> None:
        """(Re)bind a tracer to the scheduler and every replica."""
        self.tracer = tracer
        for replica in self.pool.replicas:
            replica.server.attach_tracer(tracer)
        metrics = tracer.metrics
        self._m_submitted = metrics.counter("serve.submitted")
        self._m_admit = metrics.counter("serve.admit")
        self._m_reject = {
            status: metrics.counter("serve." + status.replace("-", "_"))
            for status in (REJECT_QUEUE_FULL, REJECT_INFEASIBLE, REJECT_NO_REPLICA)
        }
        self._m_replica_down = metrics.counter("serve.replica_down")
        self._m_replica_up = metrics.counter("serve.replica_up")
        self._g_live_replicas = metrics.gauge("serve.live_replicas")
        self._m_shed = metrics.counter("serve.shed")
        self._m_displaced = metrics.counter("serve.displaced")
        self._m_complete = metrics.counter("serve.complete")
        self._m_degrade = metrics.counter("serve.degrade")
        self._m_recover = metrics.counter("serve.recover")
        self._g_queue_depth = metrics.gauge("serve.queue_depth")
        self._g_shed_rate = metrics.gauge("serve.shed_rate")
        self._g_degraded = metrics.gauge("serve.degraded_sessions")
        self._m_batches = metrics.counter("serve.batch.dispatched")
        self._m_batched_items = metrics.counter("serve.batch.items")
        self._m_batch_saved = metrics.counter("serve.batch.saved_ms")
        self._g_batch_size = metrics.gauge("serve.batch.last_size")
        self._g_utilization = [
            metrics.gauge(f"serve.server{replica.index}.utilization")
            for replica in self.pool.replicas
        ]
        if self.meter is not None:
            self.meter.attach(metrics)

    # ------------------------------------------------------------------
    # Facade used by the pipeline
    # ------------------------------------------------------------------
    @property
    def busy_ms_total(self) -> float:
        return self.pool.busy_ms_total

    def busy_ms_until(self, t_ms: float) -> float:
        return sum(replica.busy_ms_until(t_ms) for replica in self.pool.replicas)

    def is_free_at(self, now_ms: float) -> bool:
        return self.pool.is_free_at(now_ms)

    def is_degraded(self, session_index: int) -> bool:
        return self.degrade.is_degraded(session_index)

    def take_keyframe_request(self, session_index: int) -> bool:
        return self.degrade.take_keyframe_request(session_index)

    def deadline_for(self, send_ms: float, budget_ms: float) -> float:
        return self.admission.deadline_for(send_ms, budget_ms)

    # ------------------------------------------------------------------
    def submit(
        self,
        session_index: int,
        request: OffloadRequest,
        truth_masks: list[InstanceMask],
        image_shape: tuple[int, int],
        send_ms: float,
        arrive_ms: float,
        budget_ms: float,
        now_ms: float,
    ) -> tuple[bool, str]:
        """Admission-check one offload.  Returns ``(admitted, status)``;
        a rejected request never reaches a server and the client should
        be told immediately so it can keep rendering through MAMT."""
        tenant = qos = None
        vstart = 0.0
        if self.tenancy is not None:
            tenant = self.tenancy.tenant_of(session_index)
            qos = self.tenancy.qos_of(session_index)
            vstart = self.fair.vstart(tenant)
        item = ServeItem(
            seq=self._next_seq,
            session_index=session_index,
            request=request,
            truth_masks=truth_masks,
            image_shape=image_shape,
            send_ms=send_ms,
            arrive_ms=arrive_ms,
            deadline_ms=self.deadline_for(send_ms, budget_ms),
            ctx=RequestContext(session_index, request.frame_index, tenant=tenant),
            tenant=tenant,
            qos=qos,
            vstart=vstart,
        )
        self._next_seq += 1
        self.counts["submitted"] += 1
        self._m_submitted.inc()
        self._meter(tenant, "submitted")
        # The uplink already happened by the time admission runs, so the
        # bytes are charged to the tenant whatever the verdict.
        self._meter(tenant, "bytes_up", float(request.payload_bytes))

        if not self.pool.live_replicas():
            return self._reject(item, REJECT_NO_REPLICA, -1, now_ms)

        replica = self.pool.choose(item, now_ms)
        decision = self.admission.check(item, replica, now_ms)
        # Weighted-fair displacement: a full queue is not a flat
        # rejection when tenancy is on — an arrival with a stronger claim
        # (higher QoS, then earlier SFQ virtual start) evicts the weakest
        # queued item instead, so a saturating tenant cannot hold every
        # slot against the others.
        if decision.admitted or (
            decision.status == REJECT_QUEUE_FULL
            and self.tenancy is not None
            and self._try_displace(item, replica, now_ms)
        ):
            self._admit(item, replica, decision.est_completion_ms, arrive_ms)
            return True, ADMIT
        return self._reject(
            item,
            decision.status,
            replica.index,
            now_ms,
            est_completion_ms=round(decision.est_completion_ms, 6),
        )

    # ------------------------------------------------------------------
    def _reject(
        self, item: ServeItem, status: str, server: int, now_ms: float, **attrs
    ) -> tuple[bool, str]:
        """Book one rejected arrival: it never reaches a server."""
        key = status.replace("reject-", "rejected_").replace("-", "_")
        self.counts[key] += 1
        self._m_reject[status].inc()
        self._meter(item.tenant, key)
        if self.tracer.enabled:
            self.tracer.event(
                "serve.reject",
                lane="serve",
                ts_ms=item.arrive_ms,
                frame=item.frame_index,
                ctx=item.ctx,
                session=item.session_index,
                server=server,
                reason=status,
                deadline_ms=round(item.deadline_ms, 6),
                **attrs,
            )
        self._note_failure(item.session_index, now_ms)
        return False, status

    def _shed(
        self, replica: ServerReplica, item: ServeItem, ts_ms: float, now_ms: float, **attrs
    ) -> None:
        """Book one queued request dropped unrun (at dispatch, displaced,
        or orphaned by a kill); :meth:`advance` hands the outcome back."""
        replica.queue.remove(item)
        replica.shed += 1
        self.counts["shed"] += 1
        self._m_shed.inc()
        self._meter(item.tenant, "shed")
        if self.tracer.enabled:
            self.tracer.event(
                "serve.shed",
                lane="serve",
                ts_ms=ts_ms,
                frame=item.frame_index,
                ctx=item.ctx,
                session=item.session_index,
                server=replica.index,
                deadline_ms=round(item.deadline_ms, 6),
                **attrs,
            )
        self._note_failure(item.session_index, now_ms)
        self._pending_outcomes.append(
            ServeOutcome(kind="shed", item=item, server_index=replica.index)
        )

    def _meter(self, tenant: str | None, key: str, amount: float = 1) -> None:
        if self.meter is not None and tenant is not None:
            self.meter.add(tenant, key, amount)

    def _admit(
        self,
        item: ServeItem,
        replica: ServerReplica,
        est_completion_ms: float,
        arrive_ms: float,
    ) -> None:
        """Commit one admission: queue slot, counters, fair clock."""
        replica.queue.append(item)
        self.counts["admitted"] += 1
        self._m_admit.inc()
        self._meter(item.tenant, "admitted")
        if self.fair is not None and item.tenant is not None:
            self.fair.commit(item.tenant)
        self.degrade.on_success(item.session_index)
        if self.tracer.enabled:
            attrs = {}
            if item.tenant is not None:
                attrs["vstart"] = round(item.vstart, 6)
            self.tracer.event(
                "serve.admit",
                lane="serve",
                ts_ms=arrive_ms,
                frame=item.frame_index,
                ctx=item.ctx,
                session=item.session_index,
                server=replica.index,
                deadline_ms=round(item.deadline_ms, 6),
                est_completion_ms=round(est_completion_ms, 6),
                queue_depth=len(replica.queue),
                **attrs,
            )

    @staticmethod
    def _claim(item: ServeItem) -> tuple:
        """Strength of an item's hold on a queue slot (smaller wins):
        QoS priority, then SFQ virtual start, then (session, frame) —
        the deterministic tie-break for identical virtual starts."""
        assert item.qos is not None
        return (
            item.qos.priority,
            item.vstart,
            item.session_index,
            item.frame_index,
        )

    def _try_displace(
        self, item: ServeItem, replica: ServerReplica, now_ms: float
    ) -> bool:
        """Shed the weakest-claim queued item to make room for ``item``
        if the newcomer's claim is strictly stronger.  Shed-exempt
        (premium) queue entries are never displaced."""
        victims = [
            queued for queued in replica.queue if not queued.qos.shed_exempt
        ]
        if not victims:
            return False
        victim = max(victims, key=self._claim)
        if not self._claim(item) < self._claim(victim):
            return False
        self.counts["displaced"] += 1
        self._m_displaced.inc()
        self._meter(victim.tenant, "displaced")
        self._shed(
            replica,
            victim,
            item.arrive_ms,
            now_ms,
            reason="displaced",
            by=item.ctx.trace_id if item.ctx is not None else None,
        )
        return True

    # ------------------------------------------------------------------
    def advance(self, now_ms: float) -> list[ServeOutcome]:
        """Drain replica queues up to the simulated instant ``now_ms``.

        Returns completions (with detections and completion times — the
        pipeline adds the per-session downlink) and sheds (the pipeline
        notifies the owning client).  Also runs the staggered
        degrade-recovery check against the post-drain queue depth.
        """
        for replica in self.pool.live_replicas():
            self._drain_replica(replica, now_ms)
        outcomes, self._pending_outcomes = self._pending_outcomes, []

        depth = self.pool.queue_depth()
        self._g_queue_depth.set(depth)
        if self.counts["submitted"]:
            self._g_shed_rate.set(self.counts["shed"] / self.counts["submitted"])
        if now_ms > 0.0:
            for replica, gauge in zip(self.pool.replicas, self._g_utilization):
                gauge.set(replica.busy_ms_until(now_ms) / now_ms)

        recovered = self.degrade.maybe_recover(now_ms, depth)
        if recovered is not None:
            self._m_recover.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "serve.recover",
                    lane="serve",
                    ts_ms=now_ms,
                    session=recovered,
                    queue_depth=depth,
                )
        self._g_degraded.set(len(self.degrade.degraded_sessions()))
        return outcomes

    def release_payloads(self) -> None:
        """End of run: no request still queued or awaiting hand-back will
        reach a frame, so drop each one's ground-truth masks (full-size
        rasters, possibly the renderer's shared ones), and no replica will
        infer again, so drop each model's anchor grids.  The requests stay
        where they are, so :meth:`stats` reads the same."""
        items = [item for replica in self.pool.replicas for item in replica.queue]
        items += [outcome.item for outcome in self._pending_outcomes]
        for item in items:
            item.truth_masks = []
        for replica in self.pool.replicas:
            replica.server.model.release_caches()

    # ------------------------------------------------------------------
    def _drain_replica(self, replica: ServerReplica, now_ms: float) -> None:
        while replica.queue:
            free_at = replica.server.free_at_ms
            earliest = min(item.arrive_ms for item in replica.queue)
            pick_ms = max(free_at, earliest)
            # Commit only picks that are in the simulated past: every
            # not-yet-dispatched request arrives after ``now_ms``, so no
            # later arrival could have contended for this slot.
            if pick_ms > now_ms:
                return
            arrived = sorted(
                (item for item in replica.queue if item.arrive_ms <= pick_ms),
                key=self.pool.policy.service_key,
            )
            head = None
            for item in arrived:
                # Shed-exempt (premium) items are dispatched even when
                # late — the tenant paid for the full offload path.
                sheddable = item.qos is None or not item.qos.shed_exempt
                if sheddable and self.admission.should_shed(
                    item, pick_ms, replica.est_infer_ms
                ):
                    self._shed(replica, item, pick_ms, now_ms)
                    continue
                head = item
                break
            if head is None:
                continue  # everything arrived was shed; re-evaluate queue
            if not self._dispatch_batch(replica, head, pick_ms, now_ms):
                return  # batch window still open in simulated time

    def _dispatch_batch(
        self,
        replica: ServerReplica,
        head: ServeItem,
        pick_ms: float,
        now_ms: float,
    ) -> bool:
        """Coalesce compatible queued items behind ``head`` and dispatch.

        Deterministic EDF-aware window: walking the rest of the queue in
        service order, a joiner is accepted only if it can be on-device
        before the batch must leave AND growing the batch keeps the
        estimated completion within *every* member's deadline — batching
        never induces a deadline miss that solo service would have met.
        The dispatch instant is ``max(pick, last join, min(window end,
        urgency cutoff))``; a full batch leaves at ``max(pick, last
        join)``, so at ``max_size=1`` the head leaves at its pick.  If
        the instant lies beyond ``now_ms`` the whole drain defers (any
        request submitted at a later tick arrives after ``now_ms``, so
        deferring can only *add* candidates, never reorder committed
        ones — schedules stay byte-identical across runs).

        Returns True when a batch was dispatched, False to defer.
        """
        cfg = replica.batching
        window_end = pick_ms + cfg.window_ms
        members = [head]
        join_max = pick_ms  # head already arrived by pick_ms
        deadline_min = head.deadline_ms
        downlink = self.admission.config.est_downlink_ms

        def urgency(size: int, deadline: float) -> float:
            # Latest start for which a batch of ``size`` still makes the
            # tightest member's deadline (downlink allowance included).
            return deadline - replica.est_batch_ms(size) - downlink

        # The head is dispatched regardless (shedding was decided above);
        # its own urgency only bounds how long we are willing to wait.
        dispatch = max(pick_ms, min(window_end, urgency(1, deadline_min)))
        joiners = sorted(
            (item for item in replica.queue if item is not head),
            key=self.pool.policy.service_key,
        )
        for item in joiners:
            if len(members) >= cfg.max_size:
                break
            join = max(item.arrive_ms, pick_ms)
            if join > dispatch:
                continue  # cannot be on-device before the batch leaves
            cand_deadline = min(deadline_min, item.deadline_ms)
            cand_urgency = urgency(len(members) + 1, cand_deadline)
            if max(pick_ms, join_max, join) > min(window_end, cand_urgency):
                continue  # growing the batch would endanger a member
            members.append(item)
            join_max = max(join_max, join)
            deadline_min = cand_deadline
            dispatch = max(pick_ms, join_max, min(window_end, cand_urgency))
        if len(members) >= cfg.max_size:
            dispatch = max(pick_ms, join_max)  # full — leave immediately
        if dispatch > now_ms:
            return False

        for item in members:
            replica.queue.remove(item)
        free_before = replica.server.free_at_ms
        # One submit call per dispatch, a batch of one included: perfbench
        # counts single-client dispatches by these calls.
        completion, detections_list, solo_ms = replica.server.submit(
            [
                (item.request, item.truth_masks, item.image_shape, item.arrive_ms, item.ctx)
                for item in members
            ],
            dispatch,
            cfg.alpha,
        )
        batch_ms = completion - max(dispatch, free_before)
        alpha = self.admission.config.est_infer_alpha
        for solo in solo_ms:
            replica.observe_infer(solo, alpha)
        size = len(members)
        replica.completed += size
        self.counts["completed"] += size
        self._m_complete.inc(size)
        for item, detections in zip(members, detections_list):
            self._meter(item.tenant, "completed")
            # Service cost is split evenly across the members — the
            # per-tenant server_ms sums stay within float tolerance of
            # the pool's busy_ms_total.
            self._meter(item.tenant, "server_ms", batch_ms / size)
            self._pending_outcomes.append(
                ServeOutcome(
                    kind="complete",
                    item=item,
                    masks=detections,
                    completion_ms=completion,
                    server_index=replica.index,
                )
            )
        if cfg.max_size == 1:
            return True  # batch accounting covers batching replicas only
        saved_ms = max(sum(solo_ms) - batch_ms, 0.0)
        replica.batches += 1
        replica.batched_items += size
        self.counts["batches"] += 1
        self.counts["batched_items"] += size
        if size > 1:
            self.counts["shared_items"] += size
        self.counts["batch_saved_ms"] += saved_ms
        self._m_batches.inc()
        self._m_batched_items.inc(size)
        self._m_batch_saved.inc(saved_ms)
        self._g_batch_size.set(size)
        if self.tracer.enabled:
            self.tracer.event(
                "serve.batch.dispatch",
                lane="serve",
                ts_ms=dispatch,
                ctx=members[0].ctx,
                server=replica.index,
                size=size,
                wait_ms=round(dispatch - pick_ms, 6),
                batch_ms=round(batch_ms, 6),
                saved_ms=round(saved_ms, 6),
                traces=[item.ctx.trace_id for item in members if item.ctx is not None],
            )
        return True

    # ------------------------------------------------------------------
    # Chaos fault surface (repro.chaos.ChaosInjector drives these)
    # ------------------------------------------------------------------
    def kill_replica(self, index: int, now_ms: float) -> int:
        """Take replica ``index`` down at ``now_ms``.

        Queued items are orphaned and shed (returned as ``shed`` outcomes
        at the next :meth:`advance`, so delivery order is unchanged);
        work whose result was already committed by an earlier drain is
        unaffected — in the discrete-event model the completion was
        decided when the item was dispatched.  Returns the number of
        orphaned items.
        """
        replica = self.pool.replicas[index]
        if not replica.alive:
            return 0
        replica.alive = False
        self.counts["replica_kills"] += 1
        self._m_replica_down.inc()
        self._g_live_replicas.set(len(self.pool.live_replicas()))
        orphans = list(replica.queue)
        for item in orphans:
            self._shed(replica, item, now_ms, now_ms, reason="replica_killed")
        if self.tracer.enabled:
            self.tracer.event(
                "serve.replica_down",
                lane="serve",
                ts_ms=now_ms,
                server=index,
                orphaned=len(orphans),
                live=len(self.pool.live_replicas()),
            )
        return len(orphans)

    def revive_replica(self, index: int, now_ms: float) -> None:
        """Bring a killed replica back into placement rotation."""
        replica = self.pool.replicas[index]
        if replica.alive:
            return
        replica.alive = True
        self.counts["replica_revives"] += 1
        self._m_replica_up.inc()
        self._g_live_replicas.set(len(self.pool.live_replicas()))
        if self.tracer.enabled:
            self.tracer.event(
                "serve.replica_up",
                lane="serve",
                ts_ms=now_ms,
                server=index,
                live=len(self.pool.live_replicas()),
            )

    # ------------------------------------------------------------------
    # Autoscaler surface (repro.tenancy.Autoscaler drives these).  These
    # flips are *capacity management*, not faults: no kill/revive
    # counters, no orphaned work, and the autoscaler itself emits the
    # autoscale.* events around them.
    # ------------------------------------------------------------------
    def set_replica_standby(self, index: int) -> None:
        """Park a live replica out of placement rotation."""
        replica = self.pool.replicas[index]
        if not replica.alive:
            return
        if replica.queue:
            raise ValueError(
                f"cannot stand by replica {index} with "
                f"{len(replica.queue)} queued item(s)"
            )
        replica.alive = False
        self._g_live_replicas.set(len(self.pool.live_replicas()))

    def set_replica_active(self, index: int) -> None:
        """Return a standby replica to placement rotation."""
        replica = self.pool.replicas[index]
        if replica.alive:
            return
        replica.alive = True
        self._g_live_replicas.set(len(self.pool.live_replicas()))

    def set_latency_scale(self, index: int, scale: float) -> None:
        """Inflate (or restore) one replica's service time — the chaos
        straggler fault.  Every dispatch, batched or not, feeds the
        admission EMA each member's inflated solo time, so feasibility
        checks steer load away from the straggler."""
        if scale <= 0.0:
            raise ValueError("latency scale must be positive")
        self.pool.replicas[index].server.latency_scale = scale

    def _note_failure(self, session_index: int, now_ms: float) -> None:
        if self.degrade.on_failure(session_index, now_ms):
            self._m_degrade.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "serve.degrade",
                    lane="serve",
                    ts_ms=now_ms,
                    session=session_index,
                    failures=self.degrade.sessions[
                        session_index
                    ].consecutive_failures,
                )

    # ------------------------------------------------------------------
    def stats(self, duration_ms: float | None = None) -> dict:
        """JSON-clean scheduler summary for BENCH artifacts / CLI."""
        per_server = []
        for replica in self.pool.replicas:
            entry = {
                "index": replica.index,
                "alive": replica.alive,
                "completed": replica.completed,
                "shed": replica.shed,
                "left_in_queue": len(replica.queue),
                "busy_ms": round(replica.server.busy_ms_total, 6),
                "est_infer_ms": round(replica.est_infer_ms, 6),
            }
            if self.batching.max_size > 1:
                entry["batches"] = replica.batches
                entry["batched_items"] = replica.batched_items
            if duration_ms:
                entry["utilization"] = round(
                    replica.busy_ms_until(duration_ms) / duration_ms, 6
                )
            per_server.append(entry)
        submitted = self.counts["submitted"]
        shed = self.counts["shed"]
        out = {
            "policy": self.pool.policy.name,
            "num_servers": len(self.pool),
            "queue_limit": self.admission.config.queue_limit,
            "deadline_horizon": self.admission.config.deadline_horizon,
            "submitted": submitted,
            "admitted": self.counts["admitted"],
            "rejected_queue_full": self.counts["rejected_queue_full"],
            "rejected_infeasible": self.counts["rejected_infeasible"],
            "rejected_no_replica": self.counts["rejected_no_replica"],
            "replica_kills": self.counts["replica_kills"],
            "replica_revives": self.counts["replica_revives"],
            "shed": shed,
            "displaced": self.counts["displaced"],
            "completed": self.counts["completed"],
            "shed_rate": round(shed / submitted, 6) if submitted else 0.0,
            "left_in_queue": self.pool.queue_depth(),
            "degrade": self.degrade.stats(),
            "per_server": per_server,
        }
        if self.tenancy is not None:
            out["tenancy"] = {
                "tenants": self.tenancy.describe(),
                "per_tenant": self.meter.stats(),
                "fair": self.fair.stats(),
            }
        if self.batching.max_size > 1:
            completed = self.counts["completed"]
            out["batching"] = {
                "window_ms": self.batching.window_ms,
                "max_size": self.batching.max_size,
                "alpha": self.batching.alpha,
                "batches": self.counts["batches"],
                "batched_items": self.counts["batched_items"],
                "batch_saved_ms": round(self.counts["batch_saved_ms"], 6),
                "mean_batch_size": round(
                    self.counts["batched_items"] / self.counts["batches"], 6
                )
                if self.counts["batches"]
                else 0.0,
                "batched_fraction": round(
                    self.counts["shared_items"] / completed, 6
                )
                if completed
                else 0.0,
            }
        return out


def fifo_scheduler(
    servers: list[EdgeServer],
    num_sessions: int,
    tracer: Tracer | None = None,
) -> FleetScheduler:
    """The paper's deployment over ``servers``: FIFO service, nothing
    rejected, shed or degraded (see ``FIFO_POLICY``)."""
    return FleetScheduler(
        servers,
        policy=FIFO_POLICY,
        admission=AdmissionConfig(
            queue_limit=FIFO_QUEUE_LIMIT, deadline_horizon=FIFO_DEADLINE_HORIZON
        ),
        degrade=DegradeConfig(enabled=False),
        num_sessions=num_sessions,
        tracer=tracer,
    )
