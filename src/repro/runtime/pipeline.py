"""The mobile/edge pipeline: a per-frame discrete-event simulation.

This module holds the edge server, the per-frame and per-run result
types, and :class:`Pipeline`, which runs a hand-built client.  The frame
loop itself lives in :mod:`repro.runtime.multi`; a single-client run is
its one-session case against the FIFO scheduler of one replica
(:func:`repro.serve.scheduler.fifo_scheduler`).  Timeline per captured
frame (camera at ``fps``):

1. pending edge results whose downlink completed are delivered;
2. if the client is free, it processes the frame (tracker / VO / local
   model), yielding display masks, a compute time, and possibly an offload;
   if it is still busy with an earlier frame, the *previous* display masks
   are re-rendered (that is the paper's "latency accumulates and results in
   a delayed mask rendering");
3. an offload is encoded, shipped over the channel, queued on the edge
   (one inference at a time, in arrival order), run through the simulated
   model and shipped back.

Per-frame metrics record the IoU of whatever was on screen against the
frame's ground truth — the exact quantity behind every accuracy figure in
the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..image.masks import InstanceMask
from ..model.degrade import degrade_mask_to_iou
from ..model.maskrcnn import SimulatedSegmentationModel
from ..network.channel import Channel
from ..obs.trace import NULL_TRACER, RequestContext, Tracer
from ..synthetic.world import SyntheticVideo
from .interface import ClientSystem, OffloadRequest

__all__ = [
    "FrameMetric",
    "RunResult",
    "EdgeServer",
    "Pipeline",
    "PipelineMetrics",
]

RESULT_HEADER_BYTES = 200  # transport/container overhead per result


@dataclass
class PipelineMetrics:
    """The ``pipeline.*`` instruments of the frame loop.

    Single-client and fleet runs share the loop, so dashboards and BENCH
    counters see one vocabulary regardless of topology.
    """

    frames: object
    deadline_miss: object
    frame_latency: object
    latency_ewma: object
    pending: object

    @classmethod
    def register(cls, metrics) -> "PipelineMetrics":
        return cls(
            frames=metrics.counter("pipeline.frames"),
            deadline_miss=metrics.counter("pipeline.deadline_miss"),
            frame_latency=metrics.histogram("pipeline.frame_latency_ms"),
            # Live gauges the timeline sampler snapshots: an EWMA of
            # display latency and the number of results still in flight.
            latency_ewma=metrics.gauge("pipeline.frame_latency_ewma_ms"),
            pending=metrics.gauge("pipeline.pending_deliveries"),
        )


def _channel_transfer_attrs(channel: Channel) -> dict:
    """Span attrs describing the channel's most recent transfer: the
    stall the partition window added (when any) and the carrying link
    (only when a scheduled handoff moved it off the base profile)."""
    attrs = {}
    if channel.last_stall_ms > 0.0:
        attrs["stall_ms"] = round(channel.last_stall_ms, 6)
    if channel.last_link != channel.profile.name:
        attrs["link"] = channel.last_link
    return attrs


@dataclass
class FrameMetric:
    """Everything measured for one displayed frame."""

    frame_index: int
    object_ious: dict[int, float]
    object_areas: dict[int, int]
    latency_ms: float
    client_processed: bool  # False = client was busy, stale display
    offloaded: bool
    num_rendered: int

    @property
    def mean_iou(self) -> float:
        if not self.object_ious:
            return 1.0  # empty scene, nothing to segment
        return float(np.mean(list(self.object_ious.values())))


@dataclass
class RunResult:
    """Aggregated outcome of one pipeline run."""

    system: str
    frames: list[FrameMetric]
    warmup_frames: int
    offload_count: int
    bytes_up: int
    bytes_down: int
    server_busy_ms: float
    duration_ms: float

    def _measured(self) -> list[FrameMetric]:
        return [f for f in self.frames if f.frame_index >= self.warmup_frames]

    def per_object_ious(self) -> np.ndarray:
        values = [
            iou for f in self._measured() for iou in f.object_ious.values()
        ]
        return np.asarray(values) if values else np.zeros(0)

    def mean_iou(self) -> float:
        ious = self.per_object_ious()
        return float(ious.mean()) if len(ious) else 1.0

    def false_rate(self, threshold: float = 0.75) -> float:
        ious = self.per_object_ious()
        if len(ious) == 0:
            return 0.0
        return float((ious < threshold).mean())

    def mean_latency_ms(self) -> float:
        measured = self._measured()
        if not measured:
            return 0.0
        return float(np.mean([f.latency_ms for f in measured]))

    def iou_cdf(self, grid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(grid, P[IoU <= grid]) over measured per-object IoUs."""
        ious = self.per_object_ious()
        if grid is None:
            grid = np.linspace(0.0, 1.0, 101)
        if len(ious) == 0:
            return grid, np.zeros_like(grid)
        cdf = np.array([(ious <= g).mean() for g in grid])
        return grid, cdf

    def server_utilization(self) -> float:
        return self.server_busy_ms / max(self.duration_ms, 1e-9)

    def to_dict(self, include_frames: bool = False) -> dict:
        """JSON-serializable summary (optionally with the per-frame trace)."""
        payload = {
            "system": self.system,
            "warmup_frames": self.warmup_frames,
            "num_frames": len(self.frames),
            "mean_iou": self.mean_iou(),
            "false_rate_75": self.false_rate(0.75),
            "false_rate_50": self.false_rate(0.5),
            "mean_latency_ms": self.mean_latency_ms(),
            "offload_count": self.offload_count,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "server_utilization": self.server_utilization(),
        }
        if include_frames:
            payload["frames"] = [
                {
                    "frame": f.frame_index,
                    "ious": {str(k): v for k, v in f.object_ious.items()},
                    "latency_ms": f.latency_ms,
                    "processed": f.client_processed,
                    "offloaded": f.offloaded,
                }
                for f in self.frames
            ]
        return payload


@dataclass
class _PendingDelivery:
    arrive_ms: float
    frame_index: int
    masks: list[InstanceMask]


class EdgeServer:
    """A single-GPU edge node running the (simulated) segmentation model."""

    def __init__(
        self,
        model: SimulatedSegmentationModel,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ):
        self.model = model
        self._rng = rng or np.random.default_rng(7)
        self.free_at_ms = 0.0
        self.busy_ms_total = 0.0
        # Runtime service-time multiplier — the chaos straggler fault
        # flips this mid-run (1.0 = exact pre-chaos latency, since
        # ``x * 1.0 == x`` for every finite float).
        self.latency_scale = 1.0
        # Trace lane; a ServerPool names its replicas server0..serverN.
        self.lane = "server0"
        self.attach_tracer(tracer if tracer is not None else NULL_TRACER)

    def attach_tracer(self, tracer: Tracer) -> None:
        """(Re)bind a tracer — pipelines wire their own through here."""
        self.tracer = tracer
        metrics = tracer.metrics
        self._m_requests = metrics.counter("server.requests")
        self._h_queue_wait = metrics.histogram("server.queue_wait_ms")
        self._h_infer = metrics.histogram("server.infer_ms")
        self.model.attach_metrics(metrics)

    def batch_setup_ms(self) -> float:
        """Fixed per-call cost of one inference pass on this device.

        Calibrates the batched latency model ``setup + k * n**alpha``:
        the fixed RPN/backbone and second-stage entry costs are paid once
        per batch, the per-item work ``k`` amortizes sub-linearly.
        """
        return self.model.device.scale(
            self.model.cost.rpn_fixed_ms + self.model.cost.inference_fixed_ms
        )

    def _infer_one(
        self,
        request: OffloadRequest,
        truth_masks: list[InstanceMask],
        image_shape: tuple[int, int],
    ):
        """Model pass + encoded-fidelity degradation for one request."""
        result = self.model.infer(
            truth_masks,
            image_shape,
            instructions=request.instructions,
            use_dynamic_anchors=request.use_dynamic_anchors,
            use_roi_pruning=request.use_roi_pruning,
        )
        detections = result.masks
        # Coarsely-encoded object tiles cost the model boundary accuracy.
        if request.encoded is not None:
            degraded = []
            for detection in detections:
                box = detection.box
                if box is None:
                    continue
                fidelity = request.encoded.fidelity_for_box(box)
                if fidelity < 0.98:
                    target = 0.55 + 0.45 * fidelity
                    detection = InstanceMask(
                        instance_id=detection.instance_id,
                        class_label=detection.class_label,
                        mask=degrade_mask_to_iou(
                            detection.mask, target, self._rng
                        ),
                        score=detection.score,
                    )
                degraded.append(detection)
            detections = degraded
        return result, detections

    def submit(
        self,
        entries: list[tuple],
        start_ms: float,
        alpha: float,
    ) -> tuple[float, list[list[InstanceMask]], list[float]]:
        """Serve one dispatch: ``entries`` as one inference call.

        ``entries`` are ``(request, truth_masks, image_shape, arrive_ms,
        ctx)`` tuples (``ctx`` a :class:`RequestContext` or None);
        ``start_ms`` is when the scheduler dispatches them.  The call
        costs :func:`~repro.serve.batching.estimate_batch_ms` over the
        members' solo latencies (``setup`` = :meth:`batch_setup_ms`)
        times ``latency_scale``; a single entry costs exactly its solo
        latency.  Returns ``(completion_ms, per-item detections,
        per-item scaled solo_ms)``; every item completes with the call.
        """
        from ..serve.batching import estimate_batch_ms

        if not entries:
            raise ValueError("submit needs at least one entry")
        start = max(start_ms, self.free_at_ms)
        tracer = self.tracer
        if tracer.enabled and 0.0 < self.free_at_ms < start:
            tracer.add_span(
                "server.idle",
                lane=self.lane,
                start_ms=self.free_at_ms,
                dur_ms=start - self.free_at_ms,
            )
        results = []
        all_detections: list[list[InstanceMask]] = []
        for request, truth_masks, image_shape, arrive_ms, ctx in entries:
            if tracer.enabled:
                tracer.event(
                    "server.queue_enter",
                    lane=self.lane,
                    ts_ms=arrive_ms,
                    frame=request.frame_index,
                    ctx=ctx,
                    was_free=self.is_free_at(arrive_ms),
                )
            result, detections = self._infer_one(
                request, truth_masks, image_shape
            )
            results.append(result)
            all_detections.append(detections)
        solo_ms = [result.total_ms for result in results]
        setup = self.batch_setup_ms()
        size = len(entries)
        service_ms = (
            estimate_batch_ms(sum(solo_ms) / size, setup, size, alpha)
            * self.latency_scale
        )
        completion = start + service_ms
        self.free_at_ms = completion
        self.busy_ms_total += service_ms
        for request, _, _, arrive_ms, ctx in entries:
            self._m_requests.inc()
            self._h_queue_wait.observe(start - arrive_ms)
            if tracer.enabled:
                tracer.event(
                    "server.queue_exit",
                    lane=self.lane,
                    ts_ms=start,
                    frame=request.frame_index,
                    ctx=ctx,
                    queue_wait_ms=round(start - arrive_ms, 6),
                )
        self._h_infer.observe(service_ms)
        if tracer.enabled:
            if size == 1:
                result = results[0]
                attrs = {
                    "rpn_ms": round(result.rpn_ms, 6),
                    "inference_ms": round(result.inference_ms, 6),
                    "anchors_evaluated": result.anchors_evaluated,
                    "num_proposals": result.num_proposals,
                    "num_rois": result.num_rois,
                    "num_detections": len(all_detections[0]),
                    "location_fraction": round(result.location_fraction, 6),
                }
                if result.pruning is not None:
                    attrs["rois_pruned_dominated"] = result.pruning.num_pruned_dominated
                    attrs["rois_pruned_nms"] = result.pruning.num_pruned_nms
            else:
                attrs = {
                    "batch_size": size,
                    "setup_ms": round(setup, 6),
                    "solo_total_ms": round(sum(solo_ms), 6),
                    "traces": [
                        entry[4].trace_id for entry in entries if entry[4] is not None
                    ],
                }
            tracer.add_span(
                "server.infer",
                lane=self.lane,
                frame=entries[0][0].frame_index,
                start_ms=start,
                dur_ms=service_ms,
                ctx=entries[0][4],
                **attrs,
            )
        return completion, all_detections, [
            solo * self.latency_scale for solo in solo_ms
        ]

    # perfbench/worker.py wraps this name as well as ``submit``.
    submit_batch = submit

    def is_free_at(self, now_ms: float) -> bool:
        """True when a request arriving at ``now_ms`` would start at once
        instead of queueing behind an earlier inference."""
        return self.free_at_ms <= now_ms


class Pipeline:
    """Drives one client system over one video through one channel.

    The run is the one-session case of the fleet frame loop
    (:class:`~repro.runtime.multi.MultiClientPipeline`) against the FIFO
    scheduler of one replica, ``server`` (its lane ``server0``), traced
    on the unindexed ``client``/``channel`` lanes.
    """

    def __init__(
        self,
        video: SyntheticVideo,
        client: ClientSystem,
        channel: Channel,
        server: EdgeServer,
        warmup_frames: int = 45,
        tracer: Tracer | None = None,
    ):
        # Imported here: the fleet loop and the scheduler build on this
        # module's types.
        from ..serve.scheduler import fifo_scheduler
        from .multi import ClientSession, MultiClientPipeline

        self.session = ClientSession(
            video=video,
            client=client,
            channel=channel,
            client_lane="client",
            channel_lane="channel",
        )
        self.scheduler = fifo_scheduler([server], num_sessions=1, tracer=tracer)
        self._fleet = MultiClientPipeline(
            [self.session],
            self.scheduler,
            warmup_frames=warmup_frames,
            tracer=tracer,
        )

    def run(self) -> RunResult:
        """Run the video to the end; the session's RunResult."""
        return self._fleet._run_frames()[0]
