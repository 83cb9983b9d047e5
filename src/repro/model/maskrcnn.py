"""The simulated segmentation models (Mask R-CNN, YOLACT, YOLOv3).

Structure is real — anchor grids, proposal selection, RoI pruning and the
latency they imply — while the perception itself is an error model on the
renderer's ground truth (see ``repro.model.degrade`` and DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..image.masks import InstanceMask
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .acceleration import (
    InferenceInstruction,
    PruningResult,
    dynamic_anchor_placement,
    prune_rois,
)
from .anchors import AnchorGrid
from .costs import DEVICES, MODEL_COSTS, DeviceProfile, ModelCost
from .degrade import degrade_mask_to_iou, sample_target_iou
from .nms import box_iou_matrix
from .rpn import simulate_rpn

__all__ = ["ModelProfile", "PROFILES", "InferenceResult", "SimulatedSegmentationModel"]


@dataclass(frozen=True)
class ModelProfile:
    """Accuracy/latency profile of one model family."""

    name: str
    cost_key: str
    mask_iou_mean: float
    mask_iou_std: float
    classification_accuracy: float
    small_area_px: int  # below this, detection gets unreliable
    small_miss_rate: float
    boxes_only: bool = False  # YOLOv3: emits filled boxes, not masks
    two_stage: bool = True  # has an RPN that CIIA can instruct


PROFILES: dict[str, ModelProfile] = {
    "mask_rcnn_r101": ModelProfile(
        name="mask_rcnn_r101",
        cost_key="mask_rcnn_r101",
        mask_iou_mean=0.95,
        mask_iou_std=0.025,
        classification_accuracy=0.985,
        small_area_px=90,
        small_miss_rate=0.35,
        two_stage=True,
    ),
    "yolact_r50": ModelProfile(
        name="yolact_r50",
        cost_key="yolact_r50",
        mask_iou_mean=0.76,
        mask_iou_std=0.06,
        classification_accuracy=0.96,
        small_area_px=140,
        small_miss_rate=0.5,
        two_stage=False,
    ),
    "yolov3": ModelProfile(
        name="yolov3",
        cost_key="yolov3",
        mask_iou_mean=0.985,  # box IoU — it is a detector
        mask_iou_std=0.01,
        classification_accuracy=0.97,
        small_area_px=80,
        small_miss_rate=0.3,
        boxes_only=True,
        two_stage=False,
    ),
}


@dataclass
class InferenceResult:
    """Output of one (simulated) inference call."""

    masks: list[InstanceMask]
    rpn_ms: float
    inference_ms: float
    location_fraction: float
    anchors_evaluated: int
    num_proposals: int
    num_rois: int  # RoIs actually processed by the second stage
    pruning: PruningResult | None = None

    @property
    def total_ms(self) -> float:
        return self.rpn_ms + self.inference_ms


class SimulatedSegmentationModel:
    """A segmentation model with an explicit work-latency ledger."""

    def __init__(
        self,
        profile: str | ModelProfile = "mask_rcnn_r101",
        device: str | DeviceProfile = "jetson_tx2",
        rng: np.random.Generator | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        self.device = DEVICES[device] if isinstance(device, str) else device
        self.cost: ModelCost = MODEL_COSTS[self.profile.cost_key]
        self._rng = rng or np.random.default_rng(0)
        self._anchor_cache: dict[tuple[int, int], AnchorGrid] = {}
        self.attach_metrics(metrics if metrics is not None else NULL_METRICS)

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """(Re)bind the model's work counters to a metrics registry."""
        self.metrics = metrics
        self._m_inferences = metrics.counter("model.inferences")
        self._m_anchors = metrics.counter("model.anchors_evaluated")
        self._m_proposals = metrics.counter("model.proposals")
        self._m_rois = metrics.counter("model.rois_processed")
        self._h_location_fraction = metrics.histogram(
            "model.location_fraction", buckets=tuple(x / 10 for x in range(1, 11))
        )

    # ------------------------------------------------------------------
    def infer(
        self,
        truth_masks: list[InstanceMask],
        image_shape: tuple[int, int],
        instructions: list[InferenceInstruction] | None = None,
        use_dynamic_anchors: bool = True,
        use_roi_pruning: bool = True,
    ) -> InferenceResult:
        """Segment a frame.

        ``truth_masks`` are the renderer's ground-truth instances for this
        frame (the simulated model's 'perception oracle').
        ``instructions`` are the CIIA priors; None means an uninstructed
        full-frame pass (keyframes before initialization, baselines).
        """
        if not self.profile.two_stage:
            return self._infer_single_stage(truth_masks, image_shape)
        return self._infer_two_stage(
            truth_masks,
            image_shape,
            instructions,
            use_dynamic_anchors,
            use_roi_pruning,
        )

    def release_caches(self) -> None:
        """Drop the anchor grids built so far (rebuilt on the next call)."""
        self._anchor_cache.clear()

    # ------------------------------------------------------------------
    def _anchor_grid(self, image_shape: tuple[int, int]) -> AnchorGrid:
        key = (int(image_shape[0]), int(image_shape[1]))
        grid = self._anchor_cache.get(key)
        if grid is None:
            grid = AnchorGrid(*key)
            self._anchor_cache[key] = grid
        return grid

    def _infer_two_stage(
        self,
        truth_masks,
        image_shape,
        instructions,
        use_dynamic_anchors,
        use_roi_pruning,
    ) -> InferenceResult:
        grid = self._anchor_grid(image_shape)
        gt_boxes = np.array(
            [m.box for m in truth_masks if m.box is not None], dtype=float
        ).reshape(-1, 4)
        gt_instances = [m for m in truth_masks if m.box is not None]

        instructed = bool(instructions) and use_dynamic_anchors
        if instructed:
            location_masks = dynamic_anchor_placement(grid, instructions)
            location_fraction = sum(
                int(location_masks[level.name].sum()) for level in grid.levels
            ) / max(grid.total_locations, 1)
        else:
            location_masks = None
            location_fraction = 1.0

        # Proposal budget shrinks with the evaluated area: a denser anchor
        # population in a smaller region dedups harder in selection.
        budget = int(
            self.cost.base_proposals * (0.55 + 0.45 * location_fraction)
        )
        rpn_output = simulate_rpn(
            grid,
            gt_boxes,
            self._rng,
            location_masks=location_masks,
            max_proposals=min(self.cost.base_proposals, budget),
        )

        num_proposals = rpn_output.num_proposals
        pruning: PruningResult | None = None
        if instructions and use_roi_pruning and num_proposals:
            confidences = self._class_confidences(
                rpn_output.gt_iou, rpn_output.gt_index, instructions, gt_instances
            )
            # The CIIA pruning walk inspects proposals one at a time —
            # the only consumer that still materializes the object list.
            pruning = prune_rois(
                rpn_output.proposals, instructions, confidences, metrics=self.metrics
            )
            num_rois = len(pruning.kept)
            roi_boxes = (
                np.stack([r.box for r in pruning.kept])
                if pruning.kept
                else np.zeros((0, 4))
            )
        else:
            num_rois = num_proposals
            roi_boxes = rpn_output.boxes
        self._m_inferences.inc()
        self._m_anchors.inc(rpn_output.anchors_evaluated)
        self._m_proposals.inc(num_proposals)
        self._m_rois.inc(num_rois)
        self._h_location_fraction.observe(rpn_output.location_fraction)

        detections = self._emit_detections(
            truth_masks, roi_boxes, image_shape, instructions
        )

        rpn_ms = self.device.scale(self.cost.rpn_latency(rpn_output.location_fraction))
        inference_ms = self.device.scale(
            self.cost.inference_latency(num_proposals, num_rois, len(detections))
        )
        return InferenceResult(
            masks=detections,
            rpn_ms=rpn_ms,
            inference_ms=inference_ms,
            location_fraction=rpn_output.location_fraction,
            anchors_evaluated=rpn_output.anchors_evaluated,
            num_proposals=num_proposals,
            num_rois=num_rois,
            pruning=pruning,
        )

    def _class_confidences(
        self, gt_iou, gt_index, instructions, gt_instances
    ) -> np.ndarray:
        """Confidence of each proposal on its assigned instruction's class
        (simulated classification head).

        Vectorized over the RPN's column arrays with one batched noise
        draw — stream-identical to
        :meth:`_class_confidences_reference` (a Generator consumes the
        same values for n scalar draws as for one size-n draw).
        """
        base = np.asarray(gt_iou, dtype=float).copy()
        gt_index = np.asarray(gt_index)
        if len(gt_instances):
            match = np.array(
                [
                    any(
                        inst.is_known_object
                        and inst.class_label == gt.class_label
                        for inst in instructions
                    )
                    for gt in gt_instances
                ],
                dtype=bool,
            )
            assigned = gt_index >= 0
            factor = np.where(match[np.maximum(gt_index, 0)], 1.0, 0.6)
            base[assigned] *= factor[assigned]
        noise = self._rng.normal(scale=0.05, size=len(base))
        return np.clip(base + noise, 0.0, 1.0)

    def _class_confidences_reference(
        self, proposals, instructions, gt_instances
    ) -> np.ndarray:
        """Per-proposal scalar reference for :meth:`_class_confidences`
        (equivalence-tested; ``rpn.confidence`` micro cell)."""
        confidences = np.zeros(len(proposals))
        for index, proposal in enumerate(proposals):
            base = proposal.best_gt_iou
            if proposal.best_gt_index >= 0:
                gt = gt_instances[proposal.best_gt_index]
                match = any(
                    inst.is_known_object and inst.class_label == gt.class_label
                    for inst in instructions
                )
                base = base * (1.0 if match else 0.6)
            confidences[index] = np.clip(
                base + self._rng.normal(scale=0.05), 0.0, 1.0
            )
        return confidences

    def _emit_detections(
        self, truth_masks, roi_boxes, image_shape, instructions
    ) -> list[InstanceMask]:
        """Turn covered ground-truth instances into degraded detections.

        ``roi_boxes`` is the (N, 4) array of second-stage boxes; coverage
        of every ground-truth instance is one IoU matrix instead of a
        per-instance matrix build.  The per-instance RNG draws stay in
        instance order, so the sample stream matches the scalar loop.
        """
        if not truth_masks:
            return []
        instances = [m for m in truth_masks if m.box is not None]
        if not instances:
            return []
        covered = np.zeros(len(instances), dtype=bool)
        if len(roi_boxes):
            boxes = np.array(
                [i.box for i in instances], dtype=float
            ).reshape(-1, 4)
            overlap = box_iou_matrix(boxes, roi_boxes)
            covered = (overlap >= 0.5).any(axis=1)
        detections: list[InstanceMask] = []
        for index, instance in enumerate(instances):
            if not covered[index]:
                continue
            if not self._detected(instance):
                continue
            detections.append(self._degraded_instance(instance, image_shape))
        return detections

    def _detected(self, instance: InstanceMask) -> bool:
        area = instance.area
        if area <= 0:
            return False
        if area < self.profile.small_area_px:
            return bool(self._rng.uniform() >= self.profile.small_miss_rate)
        return True

    def _degraded_instance(
        self, instance: InstanceMask, image_shape
    ) -> InstanceMask:
        target = sample_target_iou(
            self.profile.mask_iou_mean, self.profile.mask_iou_std, self._rng
        )
        if self.profile.boxes_only:
            box = instance.box
            raster = np.zeros(image_shape, dtype=bool)
            if box is not None:
                raster[box[1] : box[3], box[0] : box[2]] = True
            raster = degrade_mask_to_iou(raster, target, self._rng)
        else:
            raster = degrade_mask_to_iou(instance.mask, target, self._rng)
        class_label = instance.class_label
        if self._rng.uniform() > self.profile.classification_accuracy:
            class_label = f"not_{class_label}"
        score = float(np.clip(self._rng.normal(0.93, 0.05), 0.5, 1.0))
        return InstanceMask(
            instance_id=instance.instance_id,
            class_label=class_label,
            mask=raster,
            score=score,
        )

    # ------------------------------------------------------------------
    def _infer_single_stage(self, truth_masks, image_shape) -> InferenceResult:
        """YOLACT / YOLOv3: fixed-cost single pass, no CIIA hooks."""
        self._m_inferences.inc()
        detections = []
        for instance in truth_masks:
            if instance.box is None or not self._detected(instance):
                continue
            detections.append(self._degraded_instance(instance, image_shape))
        rpn_ms = self.device.scale(self.cost.rpn_latency(1.0))
        inference_ms = self.device.scale(
            self.cost.inference_latency(0, 0, len(detections))
        )
        return InferenceResult(
            masks=detections,
            rpn_ms=rpn_ms,
            inference_ms=inference_ms,
            location_fraction=1.0,
            anchors_evaluated=0,
            num_proposals=0,
            num_rois=0,
        )
