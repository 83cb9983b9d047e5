"""Causal lineage reconstruction for per-frame offload requests.

Every span/event the pipeline records for an offloaded frame carries a
:class:`~repro.obs.trace.RequestContext` (``(session, frame)``), so one
frame's journey — dispatch, uplink, admission, queue, batch, inference,
downlink, delivery, integration — can be stitched back into a single
:class:`RequestLineage` even though the pieces live on different lanes
(clientN / channelN / serve / serverM).

The decomposition is **exact by construction**: every segment is a
difference of adjacent boundary timestamps taken from the raw (unrounded)
span floats, so the segments telescope — their sum equals the lineage's
end-to-end latency to float precision, never "approximately".  That is
the invariant :mod:`repro.obs.critical` builds its miss attribution on,
and what ``tests/test_lineage.py`` asserts to ±1e-6 ms.

Batch membership does not rely on timestamp coincidence: batched
``server.infer`` spans and ``serve.batch.dispatch`` events carry an
explicit ``traces`` attr listing member trace ids, so a member whose
context is not the span's own still finds its service interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import Span, TraceEvent, Tracer

__all__ = [
    "SEGMENT_ORDER",
    "RequestLineage",
    "build_lineages",
    "server_index_for_lane",
]

# Exclusive, adjacent segments of one delivered request, in causal order.
SEGMENT_ORDER = (
    "device_compute",
    "serialize",
    "uplink",
    "queue_wait",
    "batch_wait",
    "service",
    "downlink",
    "delivery_wait",
    "integration",
)


def server_index_for_lane(lane: str) -> int:
    """Replica index encoded in a server lane name (``server3`` -> 3);
    -1 for non-server lanes."""
    if not lane.startswith("server"):
        return -1
    return int(lane[len("server"):])


@dataclass
class RequestLineage:
    """One offloaded frame's reconstructed end-to-end journey."""

    session: int
    frame: int
    trace_id: str
    # Tenancy attribution (multi-tenant fleets; None otherwise).
    tenant: str | None = None
    # Raw trace material, stitched by context (None = never happened):
    process: Span | None = None  # client.process that produced the offload
    dispatch: TraceEvent | None = None  # offload.dispatch
    uplink: Span | None = None  # channel.uplink
    admit: TraceEvent | None = None  # serve.admit
    reject: TraceEvent | None = None  # serve.reject
    shed: TraceEvent | None = None  # serve.shed
    queue_enter: TraceEvent | None = None  # server.queue_enter
    queue_exit: TraceEvent | None = None  # server.queue_exit
    batch: TraceEvent | None = None  # serve.batch.dispatch (member of)
    infer: Span | None = None  # server.infer (solo or shared batch span)
    downlink: Span | None = None  # channel.downlink
    delivered: TraceEvent | None = None  # client.result_delivered
    integrate: Span | None = None  # client.integrate
    # Derived:
    outcome: str = "in-flight"  # delivered | shed | rejected | in-flight
    server: int = -1
    start_ms: float = 0.0
    end_ms: float = 0.0
    segments: dict[str, float] = field(default_factory=dict)

    @property
    def e2e_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def complete(self) -> bool:
        """A lineage is complete when its causal chain has no gaps for
        its outcome: every request must at least have a dispatch and an
        uplink; a delivered one the full chain through integration; a
        shed/rejected one its terminating serve event."""
        if self.dispatch is None or self.uplink is None:
            return False
        if self.outcome == "delivered":
            return None not in (self.infer, self.downlink, self.integrate)
        if self.outcome == "shed":
            return self.shed is not None
        if self.outcome == "rejected":
            return self.reject is not None
        return True

    @property
    def stall_ms(self) -> float:
        """Partition-window hold time across both transfers."""
        total = 0.0
        for span in (self.uplink, self.downlink):
            if span is not None:
                total += float(span.attrs.get("stall_ms", 0.0))
        return total

    @property
    def handoff_link(self) -> str | None:
        """The non-base link that carried a transfer, if any."""
        for span in (self.uplink, self.downlink):
            if span is not None and "link" in span.attrs:
                return str(span.attrs["link"])
        return None

    def _finalize(self) -> None:
        """Derive outcome, boundaries and the exclusive segments."""
        segments: dict[str, float] = {}
        dispatch_ts = (
            self.dispatch.ts_ms
            if self.dispatch is not None
            else (self.uplink.start_ms if self.uplink is not None else 0.0)
        )
        self.start_ms = (
            self.process.start_ms if self.process is not None else dispatch_ts
        )
        segments["device_compute"] = dispatch_ts - self.start_ms

        if self.uplink is None:
            self.end_ms = dispatch_ts
            self.segments = segments
            return
        segments["serialize"] = self.uplink.start_ms - dispatch_ts
        segments["uplink"] = self.uplink.dur_ms
        arrive = self.uplink.end_ms

        if self.reject is not None:
            self.outcome = "rejected"
            self.end_ms = arrive
            self.segments = segments
            return
        if self.shed is not None:
            self.outcome = "shed"
            # kill_replica sheds at the fault tick, which can precede the
            # item's uplink arrival on the sim clock — clamp so the
            # queue_wait segment stays a non-negative telescoping step.
            self.end_ms = max(arrive, self.shed.ts_ms)
            segments["queue_wait"] = self.end_ms - arrive
            self.segments = segments
            return

        service_start = None
        if self.queue_exit is not None:
            service_start = self.queue_exit.ts_ms
        elif self.infer is not None:
            service_start = self.infer.start_ms
        if service_start is None or self.infer is None:
            self.outcome = "in-flight"
            self.end_ms = arrive
            self.segments = segments
            return

        held = service_start - arrive
        batch_wait = 0.0
        if self.batch is not None:
            # The batch window opened at pick (= dispatch event ts minus
            # its recorded wait); time past max(arrive, pick) is the
            # price of joining the batch, the rest is plain queueing.
            pick = self.batch.ts_ms - float(self.batch.attrs.get("wait_ms", 0.0))
            batch_wait = min(held, max(0.0, service_start - max(arrive, pick)))
        segments["queue_wait"] = held - batch_wait
        segments["batch_wait"] = batch_wait

        if self.downlink is None:
            self.outcome = "in-flight"
            segments["service"] = self.infer.end_ms - service_start
            self.end_ms = self.infer.end_ms
            self.segments = segments
            return
        segments["service"] = self.downlink.start_ms - service_start
        segments["downlink"] = self.downlink.dur_ms

        if self.integrate is None:
            self.outcome = "in-flight"
            self.end_ms = self.downlink.end_ms
            self.segments = segments
            return
        self.outcome = "delivered"
        segments["delivery_wait"] = self.integrate.start_ms - self.downlink.end_ms
        segments["integration"] = self.integrate.dur_ms
        self.end_ms = self.integrate.end_ms
        self.segments = segments


def build_lineages(tracer: Tracer) -> dict[str, RequestLineage]:
    """Stitch every offloaded request of a traced run into its lineage.

    Returns ``trace_id -> RequestLineage`` in deterministic
    ``(session, frame)`` order.  Only frames that dispatched an offload
    get a lineage (non-offloaded frames have no cross-lane journey to
    reconstruct); batched service spans are attached to every member
    listed in their ``traces`` attr.
    """
    lineages: dict[str, RequestLineage] = {}

    def lineage_for(ctx) -> RequestLineage:
        lineage = lineages.get(ctx.trace_id)
        if lineage is None:
            lineage = lineages[ctx.trace_id] = RequestLineage(
                session=ctx.session,
                frame=ctx.frame,
                trace_id=ctx.trace_id,
                tenant=ctx.tenant,
            )
        return lineage

    span_slots = {
        "channel.uplink": "uplink",
        "channel.downlink": "downlink",
        "client.integrate": "integrate",
    }
    event_slots = {
        "offload.dispatch": "dispatch",
        "serve.admit": "admit",
        "serve.reject": "reject",
        "serve.shed": "shed",
        "server.queue_enter": "queue_enter",
        "server.queue_exit": "queue_exit",
        "client.result_delivered": "delivered",
    }

    # Seed lineages from dispatch events so ordering follows causality
    # even when spans surface out of (session, frame) order.
    for event in tracer.events:
        if event.name == "offload.dispatch" and event.ctx is not None:
            lineage_for(event.ctx)

    for event in tracer.events:
        if event.ctx is None:
            continue
        if event.name == "serve.batch.dispatch":
            for trace_id in event.attrs.get("traces", ()):
                if trace_id in lineages:
                    lineages[trace_id].batch = event
            continue
        slot = event_slots.get(event.name)
        if slot is None or event.ctx.trace_id not in lineages:
            continue
        lineage = lineages[event.ctx.trace_id]
        if getattr(lineage, slot) is None:
            setattr(lineage, slot, event)

    for span in tracer.spans:
        if span.name == "server.infer":
            members = span.attrs.get("traces")
            if members:
                for trace_id in members:
                    if trace_id in lineages and lineages[trace_id].infer is None:
                        lineages[trace_id].infer = span
            elif span.ctx is not None and span.ctx.trace_id in lineages:
                lineage = lineages[span.ctx.trace_id]
                if lineage.infer is None:
                    lineage.infer = span
            continue
        if span.ctx is None or span.ctx.trace_id not in lineages:
            continue
        lineage = lineages[span.ctx.trace_id]
        if span.name == "client.process":
            # The process span of the *capture* frame (same index as the
            # request); integrate spans share the context but differ by name.
            if lineage.process is None:
                lineage.process = span
            continue
        slot = span_slots.get(span.name)
        if slot is not None and getattr(lineage, slot) is None:
            setattr(lineage, slot, span)

    for lineage in lineages.values():
        source = lineage.queue_exit or lineage.queue_enter
        if source is not None:
            lineage.server = server_index_for_lane(source.lane)
        elif lineage.infer is not None:
            lineage.server = server_index_for_lane(lineage.infer.lane)
        elif lineage.admit is not None:
            lineage.server = int(lineage.admit.attrs.get("server", -1))
        lineage._finalize()

    return dict(
        sorted(lineages.items(), key=lambda kv: (kv[1].session, kv[1].frame))
    )
