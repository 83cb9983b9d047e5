"""Motion Aware Mobile Mask Transfer (MAMT, paper Section III-C).

Given the VO state (device pose, per-object poses, labeled map) and the
cached keyframe segmentations, predict the instance masks of the current
frame without any DL inference:

1. **Source frame selection** — for each object visible now, pick the
   keyframe that has a mask for it, observes enough of its points and has
   the smallest viewing-angle difference from the current pose.
2. **Contour depth estimation** — extract the mask contour on the source
   frame (``findContours`` equivalent), and give each contour pixel the
   average depth of its k=5 nearest labeled features in that frame (the
   paper's small-neighbourhood depth-smoothness observation).
3. **Reprojection** — back-project contour pixels into the source camera,
   move them through the camera-from-object relative transform (which
   absorbs both device *and* object motion), project into the current
   frame and scan-fill the resulting contour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.camera import PinholeCamera
from ..image.contours import fill_contour, largest_contour, resample_contour
from ..image.masks import InstanceMask
from ..vo.map import KeyframeRecord
from ..vo.odometry import VisualOdometry

__all__ = [
    "TransferConfig",
    "TransferredMask",
    "MaskTransferEngine",
    "contour_depths",
]

K_NEAREST_FEATURES = 5  # the paper's empirical k


def contour_depths(
    contour_uv: np.ndarray,
    feature_pixels: np.ndarray,
    depths: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean depth of the k nearest labeled features per contour pixel.

    The paper's small-neighbourhood depth-smoothness estimate as an exact
    brute-force k-NN: squared distances to every feature, then the k
    smallest in (distance, index) order, taken one ``argmin`` at a time
    (``argmin`` returns the first of equal minima), and their depths
    averaged in that order.  One object has a few dozen labelled features
    (at most the frontend's 400), so the distance matrix stays small.
    """
    k = min(k, len(feature_pixels))
    squared = np.subtract.outer(contour_uv[:, 0], feature_pixels[:, 0])
    squared *= squared
    dv = np.subtract.outer(contour_uv[:, 1], feature_pixels[:, 1])
    dv *= dv
    squared += dv
    rows = np.arange(len(contour_uv))
    nearest = np.empty((len(contour_uv), k), dtype=np.intp)
    for rank in range(k):
        column = squared.argmin(axis=1)
        nearest[:, rank] = column
        squared[rows, column] = np.inf
    return depths[nearest].mean(axis=1)


def _contour_depths_reference(
    contour_uv: np.ndarray,
    feature_pixels: np.ndarray,
    depths: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-pixel scalar k-NN loop — reference for :func:`contour_depths`
    (equivalence tests; ``transfer.contour_depth`` micro cell).  Matches
    the vectorized path up to ties in neighbour distance at the k-th
    rank (measure-zero for float pixel coordinates)."""
    k = min(k, len(feature_pixels))
    out = np.empty(len(contour_uv))
    for index, point in enumerate(contour_uv):
        distances = np.linalg.norm(feature_pixels - point, axis=1)
        nearest = np.argsort(distances)[:k]
        out[index] = depths[nearest].mean()
    return out


@dataclass
class TransferConfig:
    """Tunables for mask transfer."""

    k_nearest: int = K_NEAREST_FEATURES
    max_contour_points: int = 192
    max_view_angle_deg: float = 45.0
    min_object_features: int = 3
    min_mask_area: int = 12


@dataclass
class TransferredMask:
    """A predicted instance mask with provenance."""

    mask: InstanceMask
    source_frame_index: int
    view_angle_deg: float


class MaskTransferEngine:
    """Computes current-frame masks from cached keyframe segmentations.

    Everything that does not depend on the current pose is computed once
    and reused across frames:

    * the resampled contour of each keyframe mask, kept while the
      keyframe holds that same mask object (``apply_segmentation``
      replaces the masks, culling drops the keyframe);
    * the contour's estimated depths and its back-projection into the
      source camera, kept for each instance's current source keyframe
      against the map version (any point added, relabeled, moved or
      culled invalidates).

    Only the relative motion, the projection and the fill run per frame.
    """

    def __init__(self, camera: PinholeCamera, config: TransferConfig | None = None):
        self.camera = camera
        self.config = config or TransferConfig()
        # (keyframe index, instance) -> (mask, resampled (row, col) contour).
        self._contours: dict[tuple[int, int], tuple[InstanceMask, np.ndarray | None]] = {}
        # (source keyframe index, instance) -> (mask, map version,
        # source-camera contour points or None), for the sources of the
        # last prediction only.
        self._backprojections: dict[
            tuple[int, int], tuple[InstanceMask, int, np.ndarray | None]
        ] = {}

    # ------------------------------------------------------------------
    def predict(self, vo: VisualOdometry) -> list[TransferredMask]:
        """Predict masks for the VO's current frame."""
        if vo.pose_cw is None:
            return []
        # Newest first: source selection takes the newest keyframe within
        # the viewing-angle budget.
        keyframes = vo.map.keyframes_with_masks()[::-1]
        self._forget_dropped(keyframes)
        backprojections = self._backprojections
        self._backprojections = {}
        predictions: list[TransferredMask] = []
        for instance_id, track in vo.objects.items():
            source = self._select_source(vo, keyframes, instance_id)
            if source is None:
                continue
            record, view_angle = source
            key = (record.frame_index, instance_id)
            if key in backprojections:
                self._backprojections[key] = backprojections[key]
            transferred = self._transfer_one(vo, record, instance_id)
            if transferred is None:
                continue
            if transferred.sum() < self.config.min_mask_area:
                continue
            predictions.append(
                TransferredMask(
                    mask=InstanceMask(
                        instance_id=instance_id,
                        class_label=track.class_label,
                        mask=transferred,
                        score=1.0,
                    ),
                    source_frame_index=record.frame_index,
                    view_angle_deg=view_angle,
                )
            )
        return predictions

    def _forget_dropped(self, keyframes: list[KeyframeRecord]) -> None:
        """Drop the contours of keyframes that left the map or whose masks
        were replaced."""
        live = {
            (record.frame_index, mask.instance_id): mask
            for record in keyframes
            for mask in record.masks
        }
        stale = [key for key, (mask, _) in self._contours.items() if live.get(key) is not mask]
        for key in stale:
            del self._contours[key]

    # ------------------------------------------------------------------
    # Source frame selection (III-C, first problem)
    # ------------------------------------------------------------------
    def _select_source(
        self,
        vo: VisualOdometry,
        keyframes: list[KeyframeRecord],
        instance_id: int,
    ) -> tuple[KeyframeRecord, float] | None:
        """The newest masked keyframe of the instance within the
        viewing-angle budget, with its viewing angle.  ``keyframes`` is
        ordered newest first.

        Among keyframes within the budget the newest wins: pose estimates
        are only locally consistent (a lost / relocalize episode shifts
        the frame of reference slightly), so staleness costs more accuracy
        than a few extra degrees.
        """
        track = vo.objects[instance_id]
        current_pose_co = track.pose_co(vo.pose_cw)
        for record in keyframes:
            mask = record.mask_for(instance_id)
            if mask is None or mask.is_empty:
                continue
            source_pose_co = record.object_poses_co.get(instance_id)
            if source_pose_co is None:
                continue
            angle = np.degrees(source_pose_co.rotation_angle_to(current_pose_co))
            if angle > self.config.max_view_angle_deg:
                continue
            return record, angle
        return None

    # ------------------------------------------------------------------
    # Contour transfer (III-C, second problem)
    # ------------------------------------------------------------------
    def _contour(self, record: KeyframeRecord, mask: InstanceMask) -> np.ndarray | None:
        """The mask's largest contour resampled to ``max_contour_points``,
        (row, col), traced once per keyframe mask."""
        key = (record.frame_index, mask.instance_id)
        entry = self._contours.get(key)
        if entry is not None and entry[0] is mask:
            return entry[1]
        contour = largest_contour(mask.mask)
        if contour is not None:
            contour = resample_contour(contour, self.config.max_contour_points)
        self._contours[key] = (mask, contour)
        return contour

    def _source_points(
        self, vo: VisualOdometry, record: KeyframeRecord, instance_id: int
    ) -> np.ndarray | None:
        """The mask contour back-projected into the source camera, each
        pixel at the mean depth of its k nearest object features as seen
        from the source keyframe (positions are stored in the object
        frame); None when the object has too few points in front of it or
        the mask has no contour."""
        mask = record.mask_for(instance_id)
        key = (record.frame_index, instance_id)
        version = vo.map.version
        entry = self._backprojections.get(key)
        if entry is not None and entry[0] is mask and entry[1] == version:
            return entry[2]
        points = None
        positions_object = vo.map.positions[vo.map.labels == instance_id]
        if len(positions_object) >= self.config.min_object_features:
            source_pose_co = record.object_poses_co[instance_id]
            points_source_cam = source_pose_co.transform(positions_object)
            depths = points_source_cam[:, 2]
            in_front = depths > 1e-3
            contour = self._contour(record, mask)
            if in_front.sum() >= self.config.min_object_features and contour is not None:
                feature_pixels, _ = self.camera.project(points_source_cam[in_front])
                # Contour is (row, col); features are (u, v) = (col, row).
                contour_uv = contour[:, ::-1]
                estimated_depths = contour_depths(
                    contour_uv, feature_pixels, depths[in_front], self.config.k_nearest
                )
                points = self.camera.backproject(contour_uv, estimated_depths)
        self._backprojections[key] = (mask, version, points)
        return points

    def _transfer_one(
        self, vo: VisualOdometry, record: KeyframeRecord, instance_id: int
    ) -> np.ndarray | None:
        points_cam_source = self._source_points(vo, record, instance_id)
        if points_cam_source is None:
            return None
        track = vo.objects[instance_id]
        source_pose_co = record.object_poses_co[instance_id]
        current_pose_co = track.pose_co(vo.pose_cw)
        # Relative motion in the object's frame absorbs object movement.
        relative = current_pose_co @ source_pose_co.inverse()
        points_cam_current = relative.transform(points_cam_source)
        projected, proj_depths = self.camera.project(points_cam_current)
        visible = proj_depths > 1e-3
        if visible.sum() < 3:
            return None
        projected = projected[visible]
        # fill_contour takes (row, col) points.
        return fill_contour(
            projected[:, ::-1], (self.camera.height, self.camera.width)
        )
