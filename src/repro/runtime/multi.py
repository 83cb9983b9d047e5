"""The frame loop: one or more devices sharing edge inference.

The paper measures one device against one edge (Fig 9/11) and eight
devices sharing one Jetson AGX Xavier (Section VI-G); both follow the same
per-frame timeline (deliver finished results, run the client turn,
offload, score what is on screen).  :class:`MultiClientPipeline` is the
only implementation of that timeline, and a
:class:`~repro.serve.scheduler.FleetScheduler` is the only way it reaches
inference.  The paper's deployment is the scheduler's FIFO configuration
(:func:`~repro.serve.scheduler.fifo_scheduler`); the ``repro.serve``
policy layer adds N replicas, pluggable placement, bounded
deadline-checked admission, shedding and MAMT-fallback degradation (see
``docs/serving.md``).  A single-client run
(``repro.eval.experiments.run_experiment``, or a hand-built
:class:`~repro.runtime.pipeline.Pipeline`) is the one-session case
against a FIFO scheduler of one replica, traced on the unindexed
``client``/``channel`` lanes.

The pipeline owns the frame clock and the channels: every offload goes
through admission, and each tick hands back completions/sheds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..encoding.mask_codec import encoded_size_bytes
from ..image.masks import InstanceMask, mask_iou
from ..network.channel import Channel
from ..obs.trace import NULL_TRACER, RequestContext, Tracer
from ..synthetic.world import SyntheticVideo
from .interface import ClientSystem
from .pipeline import (
    RESULT_HEADER_BYTES,
    FrameMetric,
    PipelineMetrics,
    RunResult,
    _channel_transfer_attrs,
    _PendingDelivery,
)

__all__ = ["ClientSession", "MultiClientPipeline"]

# Ground-truth objects smaller than this many pixels are not scored.
MIN_GT_AREA = 200


@dataclass
class ClientSession:
    """One device in the fleet."""

    video: SyntheticVideo
    client: ClientSystem
    channel: Channel
    # Mutable run state:
    busy_until_ms: float = 0.0
    last_masks: list[InstanceMask] = field(default_factory=list)
    pending: list[_PendingDelivery] = field(default_factory=list)
    metrics: list[FrameMetric] = field(default_factory=list)
    offload_count: int = 0
    # Trace lane names; unnamed sessions get client<i>/channel<i> from
    # their index in the fleet.
    client_lane: str | None = None
    channel_lane: str | None = None


class MultiClientPipeline:
    """Drive N clients frame-locked against shared edge inference."""

    def __init__(
        self,
        sessions: list[ClientSession],
        scheduler,
        warmup_frames: int = 45,
        tracer: Tracer | None = None,
        sampler=None,
        chaos=None,
        autoscaler=None,
    ):
        if not sessions:
            raise ValueError("MultiClientPipeline needs at least one session")
        lengths = {len(s.video) for s in sessions}
        if len(lengths) != 1:
            raise ValueError("all session videos must have the same length")
        rates = {s.video.fps for s in sessions}
        if len(rates) != 1:
            raise ValueError(
                "all session videos must share the same fps; got "
                f"{sorted(rates)} — the frame clock is fleet-wide, so a "
                "mixed-fps fleet would mis-time every session but the first"
            )
        self.sessions = sessions
        # A repro.serve FleetScheduler.
        self.scheduler = scheduler
        self.warmup_frames = warmup_frames
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and not scheduler.tracer.enabled:
            scheduler.attach_tracer(self.tracer)
        # Optional repro.obs.timeline.TimelineSampler, ticked once per
        # frame tick so fleet gauges become fixed-interval time series.
        self.sampler = sampler
        # Optional repro.chaos.ChaosInjector, ticked at the top of every
        # frame tick so faults land at deterministic sim-clock instants.
        self.chaos = chaos
        # Optional repro.tenancy.Autoscaler, ticked right after chaos so
        # capacity reacts to faults within the same simulated frame.
        self.autoscaler = autoscaler
        # Tenant attribution for contexts minted on the client lanes
        # (the scheduler stamps its own); None outside tenancy runs.
        directory = scheduler.tenancy
        self._tenant_of = (
            directory.tenant_of if directory is not None else lambda index: None
        )
        # Same instrument names as the single-client pipeline, by
        # construction (one shared registration helper).
        self.pm = PipelineMetrics.register(self.tracer.metrics)
        self._latency_ewma: float | None = None
        # One client+channel lane pair per device; replicas trace on
        # server<i>.
        for index, session in enumerate(self.sessions):
            if session.client_lane is None:
                session.client_lane = f"client{index}"
            if session.channel_lane is None:
                session.channel_lane = f"channel{index}"
        # Last offload-mode pushed to each client.
        self._offload_enabled = [True] * len(self.sessions)
        # The per-frame display deadline: one frame interval.
        self._frame_interval = 1000.0 / self.sessions[0].video.fps

    def run(self) -> list[RunResult]:
        """Run every session to the end; one RunResult per session."""
        return self._run_frames()

    def _run_frames(self) -> list[RunResult]:
        # The one frame loop.  ``Pipeline.run`` calls it directly rather
        # than through ``run``, so each class's ``run`` times one loop
        # (perfbench/worker.py wraps both).
        num_frames = len(self.sessions[0].video)
        frame_interval = self._frame_interval

        for frame_index in range(num_frames):
            now = frame_index * frame_interval
            self.tracer.set_now(now)
            if self.chaos is not None:
                self.chaos.tick(now)
            if self.autoscaler is not None:
                self.autoscaler.tick(now)
            self._service_scheduler(now)
            for session_index, session in enumerate(self.sessions):
                self._step_session(
                    session, session_index, frame_index, now, frame_interval
                )
            # Every session has seen this tick's view: drop the shared
            # visibility pass rather than hold it until the next render.
            for session in self.sessions:
                session.video.renderer.memo.clear()
            self.pm.pending.set(
                sum(len(session.pending) for session in self.sessions)
            )
            if self.sampler is not None:
                self.sampler.tick(now)

        duration = num_frames * frame_interval
        busy_ms = self.scheduler.busy_ms_until(duration)
        self.scheduler.release_payloads()
        return [
            RunResult(
                system=session.client.name,
                frames=session.metrics,
                warmup_frames=self.warmup_frames,
                offload_count=session.offload_count,
                bytes_up=session.channel.bytes_up,
                bytes_down=session.channel.bytes_down,
                server_busy_ms=busy_ms,
                duration_ms=duration,
            )
            for session in self.sessions
        ]

    # ------------------------------------------------------------------
    # Scheduler plumbing
    # ------------------------------------------------------------------
    def _service_scheduler(self, now: float) -> None:
        """Drain the fleet scheduler and apply its verdicts: deliver
        completions through each session's downlink, notify clients of
        sheds, and push degrade/recover mode flips to the clients."""
        for outcome in self.scheduler.advance(now):
            session = self.sessions[outcome.item.session_index]
            if outcome.kind == "shed":
                self._notify_offload_failed(
                    session, outcome.item.frame_index, now
                )
                continue
            self._send_result(session, outcome)

        for index, session in enumerate(self.sessions):
            enabled = not self.scheduler.is_degraded(index)
            if enabled != self._offload_enabled[index]:
                self._offload_enabled[index] = enabled
                setter = getattr(session.client, "set_offload_enabled", None)
                if setter is not None:
                    setter(enabled)
            if enabled and self.scheduler.take_keyframe_request(index):
                keyframe = getattr(session.client, "request_keyframe", None)
                if keyframe is not None:
                    keyframe()

    def _notify_offload_failed(self, session, frame_index: int, now: float) -> None:
        """Tell a client its offload died (rejected or shed) so it frees
        the in-flight slot and keeps rendering through MAMT."""
        rejected = getattr(session.client, "offload_rejected", None)
        if rejected is not None:
            rejected(frame_index, now)

    # ------------------------------------------------------------------
    def _step_session(
        self, session, session_index, frame_index, now, frame_interval
    ) -> None:
        frame, truth = session.video.frame_at(frame_index)
        tracer = self.tracer

        ready = [d for d in session.pending if d.arrive_ms <= now]
        session.pending = [d for d in session.pending if d.arrive_ms > now]
        for delivery in sorted(ready, key=lambda d: d.arrive_ms):
            integration = session.client.receive_result(
                delivery.frame_index, delivery.masks, now
            )
            integration_start = max(session.busy_until_ms, now)
            session.busy_until_ms = integration_start + integration
            if tracer.enabled:
                delivery_ctx = RequestContext(
                    session_index,
                    delivery.frame_index,
                    tenant=self._tenant_of(session_index),
                )
                tracer.event(
                    "client.result_delivered",
                    lane=session.client_lane,
                    frame=delivery.frame_index,
                    ctx=delivery_ctx,
                    arrive_ms=round(delivery.arrive_ms, 6),
                    num_masks=len(delivery.masks),
                )
                tracer.add_span(
                    "client.integrate",
                    lane=session.client_lane,
                    frame=delivery.frame_index,
                    start_ms=integration_start,
                    dur_ms=integration,
                    ctx=delivery_ctx,
                )

        offloaded = False
        frame_ctx = RequestContext(
            session_index, frame_index, tenant=self._tenant_of(session_index)
        )
        if session.busy_until_ms <= now:
            with tracer.span(
                "client.process",
                lane=session.client_lane,
                frame=frame_index,
                start_ms=now,
                ctx=frame_ctx,
            ) as span:
                output = session.client.process_frame(frame, truth, now)
                span.dur_ms = output.compute_ms
            session.busy_until_ms = now + output.compute_ms
            session.last_masks = output.masks
            latency = output.compute_ms
            processed = True
            if output.offload is not None:
                offloaded = True
                session.offload_count += 1
                self._dispatch(
                    session,
                    session_index,
                    output.offload,
                    frame,
                    truth,
                    now + output.compute_ms,
                    now,
                )
        else:
            latency = (session.busy_until_ms - now) + frame_interval
            processed = False
            tracer.add_span(
                "client.stale_wait",
                lane=session.client_lane,
                frame=frame_index,
                start_ms=now,
                dur_ms=latency,
                ctx=frame_ctx,
                busy_until_ms=round(session.busy_until_ms, 6),
            )

        self.pm.frames.inc()
        self.pm.frame_latency.observe(latency)
        if self._latency_ewma is None:
            self._latency_ewma = latency
        else:
            self._latency_ewma += 0.2 * (latency - self._latency_ewma)
        self.pm.latency_ewma.set(self._latency_ewma)
        if latency > frame_interval:
            self.pm.deadline_miss.inc()
            if tracer.enabled:
                tracer.event(
                    "frame.deadline_miss",
                    lane=session.client_lane,
                    frame=frame_index,
                    ctx=frame_ctx,
                    latency_ms=round(latency, 6),
                    budget_ms=round(frame_interval, 6),
                    over_ms=round(latency - frame_interval, 6),
                    processed=processed,
                )

        rendered = {m.instance_id: m for m in session.last_masks}
        object_ious, object_areas = {}, {}
        for gt in truth.masks:
            if gt.area < MIN_GT_AREA:
                continue
            prediction = rendered.get(gt.instance_id)
            object_ious[gt.instance_id] = (
                mask_iou(prediction.mask, gt.mask) if prediction is not None else 0.0
            )
            object_areas[gt.instance_id] = gt.area
        session.metrics.append(
            FrameMetric(
                frame_index=frame_index,
                object_ious=object_ious,
                object_areas=object_areas,
                latency_ms=latency,
                client_processed=processed,
                offloaded=offloaded,
                num_rendered=len(session.last_masks),
            )
        )

    def _dispatch(
        self, session, session_index, request, frame, truth, send_time_ms, now
    ) -> None:
        """Send ``request`` for the frame the client just processed: its
        ``(frame, truth)`` come from the step that rendered them."""
        tracer = self.tracer
        ctx = RequestContext(
            session_index, request.frame_index, tenant=self._tenant_of(session_index)
        )
        if tracer.enabled:
            tracer.event(
                "offload.dispatch",
                lane=session.channel_lane,
                ts_ms=send_time_ms,
                frame=request.frame_index,
                ctx=ctx,
                reason=request.reason,
                payload_bytes=int(request.payload_bytes),
                encode_ms=round(request.encode_ms, 6),
            )
        uplink = session.channel.uplink_ms(
            request.payload_bytes, now_ms=send_time_ms + request.encode_ms
        )
        arrive = send_time_ms + request.encode_ms + uplink

        if tracer.enabled:
            tracer.add_span(
                "channel.uplink",
                lane=session.channel_lane,
                frame=request.frame_index,
                start_ms=send_time_ms + request.encode_ms,
                dur_ms=uplink,
                ctx=ctx,
                payload_bytes=int(request.payload_bytes),
                server_free_on_arrival=self.scheduler.is_free_at(arrive),
                **_channel_transfer_attrs(session.channel),
            )

        admitted, _status = self.scheduler.submit(
            session_index,
            request,
            truth.masks,
            frame.shape,
            send_time_ms,
            arrive,
            self._frame_interval,
            now,
        )
        if not admitted:
            self._notify_offload_failed(session, request.frame_index, now)

    def _send_result(self, session, outcome) -> None:
        """Ship a completed result down the session's channel, queue its
        delivery, and meter its bytes to the owning tenant (downlink
        bytes are only known here, once the result is encoded)."""
        item, masks, completion_ms = outcome.item, outcome.masks, outcome.completion_ms
        result_bytes = encoded_size_bytes(masks) + RESULT_HEADER_BYTES
        downlink = session.channel.downlink_ms(result_bytes, now_ms=completion_ms)
        if self.tracer.enabled:
            self.tracer.add_span(
                "channel.downlink",
                lane=session.channel_lane,
                frame=item.frame_index,
                start_ms=completion_ms,
                dur_ms=downlink,
                ctx=item.ctx,
                payload_bytes=int(result_bytes),
                num_masks=len(masks),
                server=outcome.server_index,
                **_channel_transfer_attrs(session.channel),
            )
        session.pending.append(
            _PendingDelivery(
                arrive_ms=completion_ms + downlink,
                frame_index=item.frame_index,
                masks=masks,
            )
        )
        if item.tenant is not None:
            self.scheduler.meter.add(item.tenant, "bytes_down", float(result_bytes))
