"""EdgeISSystem — the complete mobile side of edgeIS.

Wires together the paper's three modules behind the
:class:`~repro.runtime.interface.ClientSystem` protocol:

* **MAMT** — visual odometry + contour-reprojection mask transfer
  produces the display masks every frame (Section III);
* **CFRS** — decides which frames to offload and tile-encodes them
  (Section V);
* **CIIA** — attaches transferred-mask instructions to every offload so
  the edge can place anchors dynamically and prune RoIs (Section IV).

Each module can be disabled independently for the Fig. 16 ablation; with
all three off the client behaves like the best-effort baseline.
"""

from __future__ import annotations

import numpy as np

from ..baselines.trackers import MotionVectorTracker
from ..encoding.cfrs import ContentRoiSelector
from ..encoding.tiles import TileQuality
from ..image.frame import VideoFrame
from ..image.masks import InstanceMask
from ..model.acceleration import instructions_from_masks
from ..obs.trace import NULL_TRACER, Tracer
from ..runtime.interface import ClientFrameOutput, OffloadRequest
from ..synthetic.world import GroundTruth, World
from ..transfer.mask_transfer import MaskTransferEngine
from ..vo.frontend import FastBriefFrontend, OracleFrontend
from ..vo.odometry import VisualOdometry
from .config import SystemConfig

__all__ = ["EdgeISSystem"]


class EdgeISSystem:
    """The edgeIS mobile client (implements ``ClientSystem``)."""

    def __init__(
        self,
        camera,
        frame_shape: tuple[int, int],
        config: SystemConfig | None = None,
        world: World | None = None,
        frontend: str = "oracle",
        tracer: Tracer | None = None,
    ):
        """Create the client.

        Parameters
        ----------
        camera:
            The device's :class:`~repro.geometry.camera.PinholeCamera`.
        frame_shape:
            (height, width) of the video frames.
        world:
            The synthetic world — required by the ``oracle`` frontend
            (deterministic feature sites; see ``repro.vo.frontend``).
        frontend:
            ``"oracle"`` (default, used by the experiment grids) or
            ``"fast_brief"`` (the real FAST+BRIEF pipeline).
        tracer:
            Observability tracer shared with the pipeline.  Defaults to
            the no-op tracer unless ``config.trace_enabled`` asks the
            client to create its own.
        """
        self.config = config or SystemConfig()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace_enabled:
            self.tracer = Tracer()
        else:
            self.tracer = NULL_TRACER
        self.name = self.config.ablation_name
        self.camera = camera
        rng = np.random.default_rng(self.config.seed)
        self.vo = VisualOdometry(camera, self.config.vo, rng=rng, tracer=self.tracer)
        self.transfer = MaskTransferEngine(camera, self.config.transfer)
        self.selector = ContentRoiSelector(
            frame_shape, self.config.cfrs, tracer=self.tracer
        )
        if frontend == "oracle":
            if world is None:
                raise ValueError("oracle frontend requires the synthetic world")
            self.frontend = OracleFrontend(world, camera, seed=self.config.seed)
        elif frontend == "fast_brief":
            self.frontend = FastBriefFrontend()
        else:
            raise ValueError(f"unknown frontend {frontend!r}")
        # MAMT-off fallback: cached-result motion-vector tracking.
        self._mv_tracker = MotionVectorTracker()
        self._outstanding = 0
        self._last_gray: np.ndarray | None = None
        self._last_masks: list[InstanceMask] = []
        self._offloads_sent = 0
        self._last_offload_frame = -(10**9)
        # Fleet-scheduler degradation hooks (see repro.serve): while
        # offloading is disabled the client survives on pure MAMT.
        self._offload_enabled = True
        self._force_keyframe = False

    # ------------------------------------------------------------------
    # ClientSystem protocol
    # ------------------------------------------------------------------
    def process_frame(
        self, frame: VideoFrame, truth: GroundTruth, now_ms: float
    ) -> ClientFrameOutput:
        timing = self.config.timing
        tracer = self.tracer
        tracer.set_now(now_ms)
        # ``cursor`` walks the simulated clock through the frame's stages
        # so their spans tile [now_ms, now_ms + compute_ms) back to back.
        cursor = now_ms

        with tracer.span(
            "mamt.features",
            frame=frame.index,
            start_ms=cursor,
            dur_ms=timing.feature_extraction_ms,
        ):
            observation = self.frontend.observe(frame, truth)
        compute = timing.feature_extraction_ms
        cursor += timing.feature_extraction_ms

        with tracer.span(
            "mamt.vo_track",
            frame=frame.index,
            start_ms=cursor,
            dur_ms=timing.vo_tracking_ms,
        ) as vo_span:
            result = self.vo.process_frame(frame.index, frame.timestamp, observation)
            vo_span.annotate(
                state=result.state.value, num_matches=result.num_matches
            )
        compute += timing.vo_tracking_ms
        cursor += timing.vo_tracking_ms

        # Display masks.
        if self.config.use_mamt:
            with tracer.span(
                "mamt.predict", frame=frame.index, start_ms=cursor
            ) as span:
                predictions = (
                    self.transfer.predict(self.vo) if result.is_tracking else []
                )
                masks = [p.mask for p in predictions]
                stage_ms = timing.mask_predict_per_object_ms * len(masks)
                span.dur_ms = stage_ms
                span.annotate(num_masks=len(masks))
        else:
            with tracer.span(
                "tracker.mv_update", frame=frame.index, start_ms=cursor
            ) as span:
                masks = self._mv_tracker.update(frame.gray)
                stage_ms = (
                    timing.mv_tracker_base_ms
                    + timing.mv_tracker_per_object_ms * len(masks)
                )
                span.dur_ms = stage_ms
                span.annotate(num_masks=len(masks))
        compute += stage_ms
        cursor += stage_ms
        self._last_masks = masks
        if not self.config.use_mamt:
            # Only the motion-vector fallback re-reads a frame's pixels
            # when a result lands; MAMT needs none, so its frames stay
            # unshaded unless an offload encodes them.
            self._last_gray = frame.gray

        # Offload decision.
        offload = None
        outstanding_budget = (
            self.config.max_outstanding_offloads
            if self.config.use_cfrs
            else self.config.no_cfrs_outstanding
        )
        if not self._offload_enabled:
            if tracer.enabled:
                tracer.event(
                    "offload.decision",
                    lane="client",
                    frame=frame.index,
                    should_send=False,
                    reason="degraded",
                )
        elif self._outstanding < outstanding_budget:
            offload, encode_ms = self._maybe_offload(frame, result, masks)
            if offload is not None:
                stage_ms = timing.cfrs_decide_ms + encode_ms
                tracer.add_span(
                    "cfrs.offload",
                    lane="client",
                    frame=frame.index,
                    start_ms=cursor,
                    dur_ms=stage_ms,
                    reason=offload.reason,
                    payload_bytes=int(offload.payload_bytes),
                )
                compute += stage_ms
                cursor += stage_ms
                self._outstanding += 1
                self._offloads_sent += 1
                # Register the keyframe *now*, while its observation is in
                # the recent buffer — the result may come back much later.
                if result.is_tracking:
                    self.vo.promote_keyframe(frame.index)
        elif tracer.enabled:
            tracer.event(
                "offload.decision",
                lane="client",
                frame=frame.index,
                should_send=False,
                reason="outstanding-limit",
                outstanding=self._outstanding,
            )
        return ClientFrameOutput(masks=masks, compute_ms=compute, offload=offload)

    def receive_result(
        self, frame_index: int, masks: list[InstanceMask], now_ms: float
    ) -> float:
        self._outstanding = max(0, self._outstanding - 1)
        if self.tracer.enabled:
            self.tracer.event(
                "mamt.apply_result",
                lane="client",
                ts_ms=now_ms,
                frame=frame_index,
                num_masks=len(masks),
                outstanding=self._outstanding,
            )
        self.vo.apply_segmentation(frame_index, masks)
        if self._last_gray is not None:
            self._mv_tracker.reset(masks, self._last_gray)
        return self.config.timing.integrate_result_ms

    def memory_bytes(self) -> int:
        return 24 * 1024 * 1024 + self.vo.map.memory_bytes()

    # ------------------------------------------------------------------
    # Fleet-scheduler capabilities (optional ClientSystem extensions)
    # ------------------------------------------------------------------
    def set_offload_enabled(self, enabled: bool) -> None:
        """Degrade/recover hook: while disabled the client skips the
        offload decision entirely and renders through MAMT alone."""
        self._offload_enabled = enabled
        if not enabled:
            self._force_keyframe = False

    def request_keyframe(self) -> None:
        """One-shot: the next eligible frame is offloaded as a
        full-quality keyframe so the edge re-anchors the instance map."""
        self._force_keyframe = True

    def offload_rejected(self, frame_index: int, now_ms: float) -> None:
        """The scheduler rejected or shed this offload: free the
        in-flight slot without touching trackers or the VO map."""
        self._outstanding = max(0, self._outstanding - 1)
        if self.tracer.enabled:
            self.tracer.event(
                "offload.rejected",
                lane="client",
                ts_ms=now_ms,
                frame=frame_index,
                outstanding=self._outstanding,
            )

    # ------------------------------------------------------------------
    @property
    def offloads_sent(self) -> int:
        return self._offloads_sent

    def _maybe_offload(self, frame, result, masks):
        timing = self.config.timing
        tracer = self.tracer
        if self._force_keyframe:
            # Post-recovery keyframe: bypass CFRS and intervals, ship the
            # whole frame at high quality, and ask for a full edge pass.
            self._force_keyframe = False
            self._last_offload_frame = frame.index
            encoded = self.selector.encode_uniform(
                frame.index, frame.gray, TileQuality.HIGH
            )
            return (
                OffloadRequest(
                    frame_index=frame.index,
                    payload_bytes=encoded.total_bytes,
                    encode_ms=timing.encode_full_ms,
                    instructions=None,
                    use_dynamic_anchors=False,
                    use_roi_pruning=False,
                    encoded=encoded,
                    reason="recover-keyframe",
                ),
                timing.encode_full_ms,
            )
        unmatched = self._unmatched_pixels(frame, result)
        if self.config.use_cfrs:
            # One scene depth per decision (it walks the map); none without
            # objects, as scene_depth fixes its scale on first use.
            scale = max(self.vo.scene_depth(), 1e-6) if self.vo.objects else 1.0
            motion = {
                instance_id: track.accumulated_motion / scale
                for instance_id, track in self.vo.objects.items()
            }
            decision = self.selector.decide(
                frame.index,
                result.unlabeled_match_fraction,
                motion,
                unmatched,
                result.is_tracking,
            )
            if tracer.enabled:
                tracer.event(
                    "offload.decision",
                    lane="client",
                    frame=frame.index,
                    should_send=decision.should_send,
                    reason=decision.reason,
                    unlabeled_fraction=round(result.unlabeled_match_fraction, 6),
                    num_new_area_boxes=len(decision.new_area_boxes),
                    tracking=result.is_tracking,
                )
            if not decision.should_send:
                return None, 0.0
            new_boxes = decision.new_area_boxes
            encoded = self.selector.encode(frame.index, frame.gray, masks, new_boxes)
            encode_ms = timing.encode_ms
            reason = decision.reason
        else:
            if frame.index - self._last_offload_frame < self.config.fixed_offload_interval:
                if tracer.enabled:
                    tracer.event(
                        "offload.decision",
                        lane="client",
                        frame=frame.index,
                        should_send=False,
                        reason="interval-wait",
                    )
                return None, 0.0
            self._last_offload_frame = frame.index
            encoded = self.selector.encode_uniform(
                frame.index, frame.gray, TileQuality.HIGH
            )
            # New-content annotation is VO capability, not CFRS's: CIIA can
            # use it even when the smart transmission policy is disabled.
            new_boxes = self.selector.new_area_boxes(unmatched)
            encode_ms = timing.encode_full_ms
            reason = "best-effort"
            if tracer.enabled:
                tracer.event(
                    "offload.decision",
                    lane="client",
                    frame=frame.index,
                    should_send=True,
                    reason=reason,
                )

        if self.config.use_ciia and masks:
            instructions = instructions_from_masks(masks, new_boxes)
            # Without new-area coverage the edge would never discover new
            # objects: fall back to a full-frame pass while a lot of the
            # view is still unlabeled.
            if not new_boxes and result.unlabeled_match_fraction > 0.1:
                instructions = None
        else:
            instructions = None
        return (
            OffloadRequest(
                frame_index=frame.index,
                payload_bytes=encoded.total_bytes,
                encode_ms=encode_ms,
                instructions=instructions,
                use_dynamic_anchors=self.config.use_ciia,
                use_roi_pruning=self.config.use_ciia,
                encoded=encoded,
                reason=reason,
            ),
            encode_ms,
        )

    def _unmatched_pixels(self, frame, result) -> np.ndarray:
        matched = result.matched_point_ids
        unmatched_rows = np.flatnonzero(
            (matched < 0) | self.vo.map.unlabeled_mask(matched)
        )
        if not len(unmatched_rows):
            return np.zeros((0, 2))
        # Recover pixels from the VO's recent-frame buffer.
        recent = self.vo._find_recent(frame.index)
        if recent is None:
            return np.zeros((0, 2))
        return recent.observation.pixels[unmatched_rows]
