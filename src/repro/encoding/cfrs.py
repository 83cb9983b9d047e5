"""Content-based Fine-grained RoI Selection (CFRS, paper Section V).

Decides *when* to offload a frame and *how* to compress it:

* **Offload trigger** — the fraction of features matched to unlabeled map
  points exceeds ``t`` (= 0.25 in the paper), a tracked object's pose has
  changed significantly since its last annotation, or a fallback interval
  elapses (the edge must refresh masks occasionally even in a static
  scene).
* **Region partition** (Fig. 8c) — tiles under object contours and new
  content are encoded HIGH, object interiors MEDIUM, everything else LOW.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image.contours import mask_boundary
from ..image.morphology import binary_dilation, label
from ..image.masks import InstanceMask
from ..obs.trace import NULL_TRACER, Tracer
from .tiles import EncodedFrame, TileGrid, TileQuality, encode_frame

__all__ = ["CFRSConfig", "OffloadDecision", "ContentRoiSelector"]


@dataclass
class CFRSConfig:
    unlabeled_threshold: float = 0.25  # the paper's t
    object_motion_trigger: float = 0.03  # accumulated motion (scene-depth units)
    max_interval_frames: int = 20  # fallback refresh cadence
    min_interval_frames: int = 6  # don't flood the uplink
    tile_size: int = 16
    contour_dilation_tiles: int = 1


@dataclass
class OffloadDecision:
    should_send: bool
    reason: str
    new_area_boxes: list[np.ndarray] = field(default_factory=list)


class ContentRoiSelector:
    """The CFRS policy object owned by the mobile client."""

    def __init__(
        self,
        frame_shape: tuple[int, int],
        config: CFRSConfig | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config or CFRSConfig()
        self.grid = TileGrid(frame_shape[0], frame_shape[1], self.config.tile_size)
        self._last_offload_frame = -(10**9)
        self._motion_baseline: dict[int, float] = {}
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._h_offload_bytes = self._tracer.metrics.histogram(
            "cfrs.offload_bytes",
            buckets=(1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5),
        )

    # ------------------------------------------------------------------
    # Offload timing
    # ------------------------------------------------------------------
    def decide(
        self,
        frame_index: int,
        unlabeled_fraction: float,
        object_motion: dict[int, float],
        unmatched_pixels: np.ndarray,
        is_tracking: bool,
    ) -> OffloadDecision:
        """Decide whether this frame should be transmitted to the edge.

        ``object_motion`` maps instance id -> accumulated translation (in
        scene-depth-normalized units) since the track was created;
        ``unmatched_pixels`` are the (u, v) positions of features that
        matched nothing or unlabeled points (the yellow points of Fig. 8b).
        """
        decision = self._decide(
            frame_index, unlabeled_fraction, object_motion, unmatched_pixels, is_tracking
        )
        metrics = self._tracer.metrics
        metrics.counter(f"cfrs.decision.{decision.reason}").inc()
        if decision.should_send:
            metrics.counter("cfrs.offloads").inc()
        return decision

    def _decide(
        self,
        frame_index: int,
        unlabeled_fraction: float,
        object_motion: dict[int, float],
        unmatched_pixels: np.ndarray,
        is_tracking: bool,
    ) -> OffloadDecision:
        since_last = frame_index - self._last_offload_frame
        if since_last < self.config.min_interval_frames:
            return OffloadDecision(False, "rate-limited")
        if not is_tracking:
            # During initialization the edge needs frames for the two
            # initial masks; send at the fallback cadence.
            if since_last >= self.config.min_interval_frames:
                self._last_offload_frame = frame_index
                return OffloadDecision(True, "initializing")
            return OffloadDecision(False, "initializing-wait")

        if unlabeled_fraction > self.config.unlabeled_threshold:
            self._last_offload_frame = frame_index
            return OffloadDecision(
                True, "new-content", self.new_area_boxes(unmatched_pixels)
            )
        for instance_id, motion in object_motion.items():
            baseline = self._motion_baseline.get(instance_id, 0.0)
            if motion - baseline > self.config.object_motion_trigger:
                self._motion_baseline[instance_id] = motion
                self._last_offload_frame = frame_index
                return OffloadDecision(
                    True, "object-motion", self.new_area_boxes(unmatched_pixels)
                )
        if since_last >= self.config.max_interval_frames:
            self._last_offload_frame = frame_index
            return OffloadDecision(
                True, "refresh", self.new_area_boxes(unmatched_pixels)
            )
        return OffloadDecision(False, "covered")

    def new_area_boxes(self, unmatched_pixels: np.ndarray) -> list[np.ndarray]:
        """Cluster unmatched-feature pixels into rectangular new-content
        areas (tile-resolution connected components)."""
        unmatched_pixels = np.asarray(unmatched_pixels, dtype=float).reshape(-1, 2)
        if len(unmatched_pixels) == 0:
            return []
        occupancy = np.zeros((self.grid.rows, self.grid.cols), dtype=bool)
        for u, v in unmatched_pixels:
            r, c = self.grid.tile_of_pixel(v, u)
            occupancy[r, c] = True
        # Bridge one-tile gaps, then group; components that trace back to
        # a single occupied tile are treated as detector noise.
        dilated = binary_dilation(occupancy)
        labeled, count = label(dilated)
        boxes = []
        for component in range(1, count + 1):
            member = labeled == component
            if (member & occupancy).sum() < 2:  # single stray tile: noise
                continue
            rows, cols = np.nonzero(member & occupancy)
            boxes.append(
                np.array(
                    [
                        cols.min() * self.grid.tile_size,
                        rows.min() * self.grid.tile_size,
                        (cols.max() + 1) * self.grid.tile_size,
                        (rows.max() + 1) * self.grid.tile_size,
                    ],
                    dtype=float,
                )
            )
        return boxes

    # ------------------------------------------------------------------
    # Region partition + encoding (Fig. 8c/8d)
    # ------------------------------------------------------------------
    def quality_map(
        self,
        masks: list[InstanceMask],
        new_area_boxes: list[np.ndarray],
    ) -> np.ndarray:
        qualities = np.full(
            (self.grid.rows, self.grid.cols), int(TileQuality.LOW), dtype=int
        )
        for mask in masks:
            interior = self.grid.coverage_mask_from_rastermask(mask.mask)
            qualities[interior] = np.maximum(
                qualities[interior], int(TileQuality.MEDIUM)
            )
            contour = self.grid.coverage_mask_from_rastermask(mask_boundary(mask.mask))
            if self.config.contour_dilation_tiles:
                contour = binary_dilation(
                    contour, iterations=self.config.contour_dilation_tiles
                )
            qualities[contour] = int(TileQuality.HIGH)
        for box in new_area_boxes:
            rows, cols = self.grid.tiles_overlapping_box(box)
            qualities[rows, cols] = int(TileQuality.HIGH)
        return qualities

    def encode(
        self,
        frame_index: int,
        gray: np.ndarray,
        masks: list[InstanceMask],
        new_area_boxes: list[np.ndarray],
    ) -> EncodedFrame:
        encoded = encode_frame(
            gray, self.quality_map(masks, new_area_boxes), self.grid, frame_index
        )
        self._record_budget(encoded)
        return encoded

    def _record_budget(self, encoded: EncodedFrame) -> None:
        """Trace the per-region byte budget of one encoded offload."""
        self._h_offload_bytes.observe(encoded.total_bytes)
        tracer = self._tracer
        if not tracer.enabled:
            return
        attrs = {"total_bytes": int(encoded.total_bytes)}
        for quality in (TileQuality.HIGH, TileQuality.MEDIUM, TileQuality.LOW):
            region = encoded.quality_map == int(quality)
            attrs[f"bytes_{quality.name.lower()}"] = int(
                encoded.tile_bytes[region].sum()
            )
            attrs[f"tiles_{quality.name.lower()}"] = int(region.sum())
        tracer.event(
            "cfrs.encode", lane="client", frame=encoded.frame_index, **attrs
        )

    def encode_uniform(
        self, frame_index: int, gray: np.ndarray, quality: TileQuality
    ) -> EncodedFrame:
        """Whole-frame encoding at one quality (baseline systems)."""
        qualities = np.full((self.grid.rows, self.grid.cols), int(quality), dtype=int)
        encoded = encode_frame(gray, qualities, self.grid, frame_index)
        self._record_budget(encoded)
        return encoded
