"""Visual odometry with labeled-map object tracking (Sections III-A, III-B).

The pipeline per frame:

1. match the frame's features against map points predicted to be visible;
2. solve the device pose by motion-only bundle adjustment over background
   (and not-yet-labeled) points — Eq. (4);
3. for every object with >= 3 matched points, solve the device pose
   *relative to that object* (``T_co``) and derive the object's world pose
   ``T_wo = T_cw^-1 . T_co`` — Eq. (6)-(7); flag it as moving when that
   pose drifts;
4. on keyframes, triangulate new unlabeled points from two-view matches.

Segmentation results from the edge arrive asynchronously through
:meth:`VisualOdometry.apply_segmentation`, which labels map points through
the stored keyframe observations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..features.matcher import match_descriptors
from ..geometry.bundle_adjustment import MIN_PNP_POINTS, refine_pose, solve_pnp
from ..geometry.camera import PinholeCamera
from ..geometry.epipolar import recover_relative_pose
from ..geometry.se3 import SE3
from ..geometry.triangulation import (
    _triangulate_dlt_reference,
    reprojection_errors,
    reprojection_errors_each,
    triangulate_dlt,
    triangulate_dlt_each,
)
from ..image.masks import InstanceMask
from .frontend import Observation
from .map import BACKGROUND, UNLABELED, KeyframeRecord, LabeledMap

__all__ = ["VOState", "VOConfig", "ObjectTrack", "TrackingResult", "VisualOdometry"]


class VOState(Enum):
    INITIALIZING = "initializing"
    TRACKING = "tracking"
    LOST = "lost"


@dataclass
class VOConfig:
    """Tunables of the odometry; defaults follow the paper where stated."""

    min_init_matches: int = 40
    min_init_parallax_deg: float = 1.5
    min_init_displacement_px: float = 3.0
    min_track_matches: int = 12
    match_max_distance: int = 64
    match_gate_px: float = 40.0
    keyframe_interval: int = 8
    max_map_points: int = 4000
    cull_after_frames: int = 120
    min_object_points: int = MIN_PNP_POINTS  # the paper's ">= 3 pairs"
    dynamic_translation_fraction: float = 0.02  # of median scene depth
    dynamic_rotation_threshold_deg: float = 2.0
    object_motion_px: float = 3.0  # image-space motion evidence threshold
    recent_frame_buffer: int = 64
    max_new_points_per_keyframe: int = 160


@dataclass
class ObjectTrack:
    """Tracked state of one annotated object instance."""

    instance_id: int
    class_label: str
    pose_wo: SE3 = field(default_factory=SE3.identity)
    last_update_frame: int = -1
    is_moving: bool = False
    accumulated_motion: float = 0.0  # translation since last offload trigger
    still_streak: int = 0  # consecutive updates below the motion threshold

    def pose_co(self, pose_cw: SE3) -> SE3:
        """Camera-from-object pose implied by the current estimates."""
        return pose_cw @ self.pose_wo


@dataclass
class TrackingResult:
    """Outcome of processing one frame."""

    frame_index: int
    state: VOState
    pose_cw: SE3 | None
    object_poses_wo: dict[int, SE3]
    matched_point_ids: np.ndarray  # per-feature map point id, -1 if unmatched
    unlabeled_match_fraction: float
    num_matches: int
    moving_objects: set[int] = field(default_factory=set)

    @property
    def is_tracking(self) -> bool:
        return self.state is VOState.TRACKING


@dataclass
class _RecentFrame:
    frame_index: int
    timestamp: float
    observation: Observation
    pose_cw: SE3 | None
    matched_point_ids: np.ndarray


class VisualOdometry:
    """The motion-aware mobile tracker of edgeIS."""

    def __init__(
        self,
        camera: PinholeCamera,
        config: VOConfig | None = None,
        rng: np.random.Generator | None = None,
        tracer=None,
    ):
        from ..obs.trace import NULL_TRACER

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.camera = camera
        self.config = config or VOConfig()
        self.map = LabeledMap(
            max_points=self.config.max_map_points,
            cull_after_frames=self.config.cull_after_frames,
        )
        self.state = VOState.INITIALIZING
        self.objects: dict[int, ObjectTrack] = {}
        self._rng = rng or np.random.default_rng(0)
        self._pose_cw: SE3 | None = None
        self._velocity = SE3.identity()  # left-delta per frame
        self._recent: deque[_RecentFrame] = deque(maxlen=self.config.recent_frame_buffer)
        self._init_reference: _RecentFrame | None = None
        self._last_keyframe_index = -(10**9)
        self._frames_since_lost = 0
        self._consecutive_tracked = 0
        self._scene_scale0: float | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def process_frame(
        self, frame_index: int, timestamp: float, observation: Observation
    ) -> TrackingResult:
        previous_state = self.state
        if self.state is VOState.INITIALIZING:
            result = self._try_initialize(frame_index, timestamp, observation)
        else:
            result = self._track(frame_index, timestamp, observation)
        self._remember(frame_index, timestamp, observation, result)
        if self.state is not previous_state:
            self._tracer.event(
                "vo.state_transition",
                lane="client",
                frame=frame_index,
                from_state=previous_state.value,
                to_state=self.state.value,
                num_matches=result.num_matches,
            )
        return result

    def promote_keyframe(self, frame_index: int) -> bool:
        """Register a recently processed frame as a keyframe.

        The transmission module calls this for every frame it offloads so
        that the returned masks can be applied through the frame's stored
        observation.  Returns False if the frame fell out of the buffer.
        """
        recent = self._find_recent(frame_index)
        if recent is None or recent.pose_cw is None:
            return False
        if self.map.keyframe(frame_index) is not None:
            return True
        record = KeyframeRecord(
            frame_index=frame_index,
            timestamp=recent.timestamp,
            pose_cw=recent.pose_cw,
            pixels=recent.observation.pixels.copy(),
            point_ids=recent.matched_point_ids.copy(),
        )
        self.map.add_keyframe(record)
        self._tracer.event(
            "vo.keyframe_promoted",
            lane="client",
            frame=frame_index,
            num_points=int(len(record.point_ids)),
        )
        return True

    def apply_segmentation(self, frame_index: int, masks: list[InstanceMask]) -> bool:
        """Label map points with a segmentation result for a keyframe.

        Features whose pixel lies inside a mask relabel their map point to
        that instance; all other matched points become background.  Object
        points are re-anchored into the object's frame.
        """
        record = self.map.keyframe(frame_index)
        if record is None:
            if not self.promote_keyframe(frame_index):
                return False
            record = self.map.keyframe(frame_index)
            assert record is not None
        record.masks = [m.copy() for m in masks]

        # Ensure every annotated instance has a track.
        for mask in masks:
            if mask.instance_id not in self.objects:
                self.objects[mask.instance_id] = ObjectTrack(
                    instance_id=mask.instance_id, class_label=mask.class_label
                )
            self.objects[mask.instance_id].class_label = mask.class_label

        height = masks[0].mask.shape[0] if masks else None
        for feature_index, point_id in enumerate(record.point_ids):
            if point_id < 0 or point_id not in self.map:
                continue
            pixel = record.pixels[feature_index]
            label = BACKGROUND
            class_label = "background"
            for mask in masks:
                row = int(round(pixel[1]))
                col = int(round(pixel[0]))
                if (
                    0 <= row < mask.mask.shape[0]
                    and 0 <= col < mask.mask.shape[1]
                    and mask.mask[row, col]
                ):
                    label = mask.instance_id
                    class_label = mask.class_label
                    break
            point = self.map.get(int(point_id))
            if point.label == label:
                continue
            if label != BACKGROUND:
                track = self.objects[label]
                # Re-anchor into the object frame at its current pose.
                if point.label is None or point.label == BACKGROUND:
                    point.position = track.pose_wo.inverse().transform(point.position)
            elif point.is_object:
                # Demoted from object to background: back to world frame.
                previous = self.objects.get(point.label)
                if previous is not None:
                    point.position = previous.pose_wo.transform(point.position)
            self.map.relabel(int(point_id), label, class_label)

        # Record the camera-from-object pose at this keyframe for transfer.
        if record.pose_cw is not None:
            for mask in masks:
                track = self.objects[mask.instance_id]
                record.object_poses_co[mask.instance_id] = track.pose_co(record.pose_cw)
        return True

    @property
    def pose_cw(self) -> SE3 | None:
        return self._pose_cw

    def scene_depth(self) -> float:
        """Median depth of background points in the current view (scale
        reference for motion thresholds).

        Clamped to a band around the scale observed at initialization —
        an inflating estimate would otherwise loosen every motion gate
        exactly when the pose starts running away.
        """
        if self._pose_cw is None:
            return 1.0
        depth = self._median_background_depth()
        if depth is None:
            return 1.0
        if self._scene_scale0 is None:
            self._scene_scale0 = depth
        return float(np.clip(depth, 0.4 * self._scene_scale0, 2.5 * self._scene_scale0))

    def _median_background_depth(self) -> float | None:
        """Median positive depth of the background and unlabeled points
        under the current pose, or None when there is none."""
        background = self.map.positions[self.map.labels <= BACKGROUND]
        if not len(background):
            return None
        depths = self._pose_cw.transform(background)[:, 2]
        positive = depths[depths > 0]
        if len(positive) == 0:
            return None
        return float(np.median(positive))

    # ------------------------------------------------------------------
    # Initialization (Section III-A)
    # ------------------------------------------------------------------
    def _try_initialize(
        self, frame_index: int, timestamp: float, observation: Observation
    ) -> TrackingResult:
        failure = TrackingResult(
            frame_index=frame_index,
            state=VOState.INITIALIZING,
            pose_cw=None,
            object_poses_wo={},
            matched_point_ids=np.full(len(observation), -1, dtype=int),
            unlabeled_match_fraction=1.0,
            num_matches=0,
        )
        if self._init_reference is None or len(self._init_reference.observation) < 8:
            self._set_init_reference(frame_index, timestamp, observation)
            return failure

        reference = self._init_reference
        matches = match_descriptors(
            reference.observation.descriptors,
            observation.descriptors,
            max_distance=self.config.match_max_distance,
        )
        if len(matches) < self.config.min_init_matches:
            # Visual overlap with the reference is dying: restart from here.
            self._set_init_reference(frame_index, timestamp, observation)
            return failure

        points0 = np.array([reference.observation.pixels[m.query_index] for m in matches])
        points1 = np.array([observation.pixels[m.train_index] for m in matches])
        # "Enough parallax" pre-check (Section III-A): without real image
        # displacement the fundamental matrix is noise-dominated.
        displacement = np.median(np.linalg.norm(points1 - points0, axis=1))
        if displacement < self.config.min_init_displacement_px:
            return failure
        try:
            geometry = recover_relative_pose(self.camera, points0, points1, rng=self._rng)
        except ValueError:
            return failure
        if (
            geometry.median_parallax_deg < self.config.min_init_parallax_deg
            or len(geometry.points_3d) < self.config.min_init_matches // 2
        ):
            return failure

        # Build the map: world frame := reference camera frame.
        matched_ids = np.full(len(observation), -1, dtype=int)
        reference_ids = np.full(len(reference.observation), -1, dtype=int)
        kept = [matches[row] for row in geometry.point_indices]
        query = np.array([match.query_index for match in kept], dtype=int)
        train = np.array([match.train_index for match in kept], dtype=int)
        ids = self.map.add_points(
            positions=geometry.points_3d,
            descriptors=observation.descriptors[train],
            frame_index=frame_index,
            first_observation=(SE3.identity(), reference.observation.pixels[query]),
            last_observation=(geometry.pose_10, observation.pixels[train]),
            parallax_deg=geometry.median_parallax_deg,
        )
        matched_ids[train] = ids
        reference_ids[query] = ids

        self._pose_cw = geometry.pose_10  # current camera from world(=ref frame)
        self.state = VOState.TRACKING
        frame_gap = max(frame_index - reference.frame_index, 1)
        self._velocity = SE3.exp(geometry.pose_10.log() / frame_gap)

        self.map.add_keyframe(
            KeyframeRecord(
                frame_index=reference.frame_index,
                timestamp=reference.timestamp,
                pose_cw=SE3.identity(),
                pixels=reference.observation.pixels.copy(),
                point_ids=reference_ids,
            )
        )
        self.map.add_keyframe(
            KeyframeRecord(
                frame_index=frame_index,
                timestamp=timestamp,
                pose_cw=self._pose_cw,
                pixels=observation.pixels.copy(),
                point_ids=matched_ids,
            )
        )
        self._last_keyframe_index = frame_index
        return TrackingResult(
            frame_index=frame_index,
            state=VOState.TRACKING,
            pose_cw=self._pose_cw,
            object_poses_wo={},
            matched_point_ids=matched_ids,
            unlabeled_match_fraction=1.0,
            num_matches=len(geometry.point_indices),
        )

    def _set_init_reference(
        self, frame_index: int, timestamp: float, observation: Observation
    ) -> None:
        self._init_reference = _RecentFrame(
            frame_index=frame_index,
            timestamp=timestamp,
            observation=observation,
            pose_cw=None,
            matched_point_ids=np.full(len(observation), -1, dtype=int),
        )

    # ------------------------------------------------------------------
    # Tracking (Section III-B)
    # ------------------------------------------------------------------
    def _track(
        self, frame_index: int, timestamp: float, observation: Observation
    ) -> TrackingResult:
        relocalizing = self.state is VOState.LOST
        # When lost, the velocity model is suspect: predict from the last
        # good pose and widen the match gate instead.
        predicted_pose = self._pose_cw if relocalizing else self._velocity @ self._pose_cw
        gate = self.config.match_gate_px * (3.0 if relocalizing else 1.0)
        point_ids, positions_world, labels = self._visible_points(predicted_pose)

        matched_ids = np.full(len(observation), -1, dtype=int)
        if len(point_ids) == 0 or len(observation) == 0:
            return self._declare_lost(frame_index, matched_ids)

        descriptors = self.map.descriptors[self.map.rows(point_ids)]
        matches = match_descriptors(
            observation.descriptors,
            descriptors,
            max_distance=self.config.match_max_distance,
        )
        # Geometric gating against the predicted projections.
        projected, _ = self.camera.project_world(predicted_pose, positions_world)
        feature_rows, map_rows = self._gate_matches(
            observation.pixels, matches, projected, gate
        )
        if len(feature_rows) < self.config.min_track_matches:
            return self._declare_lost(frame_index, matched_ids)
        matched_ids[feature_rows] = point_ids[map_rows]

        # Device pose from all *static* structure: background points,
        # unlabeled points (robust kernel absorbs moving-object points
        # hiding among them) and points of objects currently classified as
        # non-moving — excluding only confirmed movers.  Object-dense
        # scenes would starve a background-only solve.
        matched_labels = labels[map_rows]
        not_static = [
            label
            for label in np.unique(matched_labels[matched_labels > BACKGROUND]).tolist()
            if label not in self.objects or self.objects[label].is_moving
        ]
        static_rows = np.flatnonzero(
            (matched_labels <= BACKGROUND) | ~np.isin(matched_labels, not_static)
        )
        if len(static_rows) < self.config.min_track_matches:
            return self._declare_lost(frame_index, matched_ids)
        static_points = positions_world[map_rows[static_rows]]
        static_pixels = observation.pixels[feature_rows[static_rows]]
        scene_depth = self.scene_depth()

        def acceptable(candidate) -> bool:
            """Enough inliers, healthy ratio, and a pose step compatible
            with one frame of device motion — a solver jump to a spurious
            minimum (planar mirror solution, moving-object consensus)
            fails one of these instead of poisoning the velocity model."""
            ratio = candidate.num_inliers / max(len(static_rows), 1)
            step = predicted_pose.translation_distance_to(candidate.pose_cw)
            step_rot = np.degrees(
                predicted_pose.rotation_angle_to(candidate.pose_cw)
            )
            max_step = max(0.25 * scene_depth, 0.05) * (2.0 if relocalizing else 1.0)
            return (
                candidate.num_inliers >= self.config.min_track_matches
                and ratio >= 0.45
                and step <= max_step
                and step_rot <= (30.0 if relocalizing else 20.0)
            )

        result = refine_pose(self.camera, predicted_pose, static_points, static_pixels)
        if not acceptable(result) and len(static_rows) >= 6:
            # Direct descent failed (dominant outlier cluster — typically a
            # not-yet-labeled moving object — or a near-planar mirror
            # basin): RANSAC over minimal sets and refine on the consensus.
            candidate = solve_pnp(
                self.camera,
                static_points,
                static_pixels,
                initial_pose_cw=predicted_pose,
                ransac_iterations=25,
                rng=self._rng,
            )
            if candidate.num_inliers > result.num_inliers:
                result = candidate
        if not acceptable(result):
            return self._declare_lost(frame_index, matched_ids)
        if result.num_inliers < len(static_rows):
            # Polish on the consensus set without the robust kernel.
            polished = refine_pose(
                self.camera,
                result.pose_cw,
                static_points[result.inlier_mask],
                static_pixels[result.inlier_mask],
                huber_delta=None,
            )
            if polished.num_inliers >= result.num_inliers * 0.9 and acceptable(
                polished
            ):
                result = polished

        previous_pose = self._pose_cw
        self._pose_cw = result.pose_cw
        if relocalizing:
            self._velocity = SE3.identity()
        else:
            self._velocity = self._clamp_velocity(
                self._pose_cw @ previous_pose.inverse(), scene_depth
            )
        self._consecutive_tracked += 1
        self.state = VOState.TRACKING
        self._frames_since_lost = 0

        final_errors = reprojection_errors(
            self.camera.matrix, self._pose_cw, static_points, static_pixels
        )
        self._update_observations(
            frame_index,
            matched_ids,
            point_ids[map_rows[static_rows]],
            static_pixels,
            final_errors,
        )

        object_poses, moving = self._track_objects(
            frame_index, observation, matched_ids
        )

        unlabeled_fraction = self._unlabeled_fraction(matched_ids)

        if frame_index - self._last_keyframe_index >= self.config.keyframe_interval:
            # Only extend the map from a settled pose estimate: points
            # triangulated right after a relocalization inherit its error
            # and would build a ghost layer of duplicates.
            if self._consecutive_tracked >= 5:
                self._create_points(frame_index, timestamp, observation, matched_ids)
                self._refine_structure(frame_index)
            self._last_keyframe_index = frame_index
            self.map.cull(frame_index)

        return TrackingResult(
            frame_index=frame_index,
            state=VOState.TRACKING,
            pose_cw=self._pose_cw,
            object_poses_wo=object_poses,
            matched_point_ids=matched_ids,
            unlabeled_match_fraction=unlabeled_fraction,
            num_matches=len(feature_rows),
            moving_objects=moving,
        )

    def _visible_points(self, pose_cw: SE3):
        """Map points predicted visible in the given pose: (point ids,
        world positions, label column values).  Object points are mapped
        through their object's current pose, one stacked matrix-vector
        product per object; points of objects without a track are
        skipped."""
        labels = self.map.labels
        positions = self.map.positions
        keep = np.ones(len(labels), dtype=bool)
        world = positions.copy()
        for label in np.unique(labels[labels > BACKGROUND]).tolist():
            rows = np.flatnonzero(labels == label)
            track = self.objects.get(label)
            if track is None:
                keep[rows] = False
            else:
                world[rows] = track.pose_wo.transform_each(positions[rows])
        ids = self.map.ids[keep]
        if not len(ids):
            return np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0, dtype=int)
        world = world[keep]
        _, _, visible = self.camera.visible_world_points(pose_cw, world, margin=60.0)
        shown = np.flatnonzero(visible)
        return ids[shown], world[shown], labels[keep][shown]

    @staticmethod
    def _gate_matches(pixels, matches, projected, gate: float):
        """(feature rows, map rows) of the matches whose feature lies within
        ``gate`` pixels of the point's predicted projection."""
        query = np.array([match.query_index for match in matches], dtype=int)
        train = np.array([match.train_index for match in matches], dtype=int)
        if not len(query):
            return query, train
        offsets = pixels[query] - projected[train]
        # Row-by-row dot products: the same ddot np.linalg.norm takes.
        errors = np.sqrt(_row_dot(offsets, offsets))
        accepted = errors <= gate
        return query[accepted], train[accepted]

    def _update_observations(
        self, frame_index, matched_ids, static_ids, static_pixels, errors
    ) -> None:
        """Touch every matched point, and record the freshest observation
        of each well-reprojecting static point (feeds structure
        refinement); count the badly reprojecting ones as outliers."""
        self.map.touch(matched_ids[matched_ids >= 0], frame_index)
        good = errors < 3.0
        self.map.record_observations(
            static_ids[good], self._pose_cw, static_pixels[good]
        )
        self.map.count_outliers(static_ids[errors > 4.0])

    def _object_matches(self, matched_ids: np.ndarray):
        """(label, feature indices, map rows) of the matched object points,
        one entry per object in order of its first matched feature."""
        features = np.flatnonzero(matched_ids >= 0)
        rows = self.map.rows(matched_ids[features])
        labels = self.map.labels[rows]
        on_object = labels > BACKGROUND
        features, rows, labels = features[on_object], rows[on_object], labels[on_object]
        unique, first = np.unique(labels, return_index=True)
        groups = []
        for label in unique[np.argsort(first)].tolist():
            members = labels == label
            groups.append((label, features[members], rows[members]))
        return groups

    def _track_objects(self, frame_index, observation, matched_ids):
        """Per-object tracking (Eq. 6-7) with image-space motion evidence.

        A full 6-DoF pose refit of a small object is badly conditioned
        (its points span a small lever arm), so the pose of an object is
        only re-estimated when the image actually shows it moved: the
        median reprojection displacement of its matched points under the
        *old* object pose exceeds a pixel threshold.  Static objects keep
        their anchored pose exactly, which keeps their points usable for
        the device-pose solve and keeps mask transfer drift-free.
        """
        object_poses: dict[int, SE3] = {}
        moving: set[int] = set()
        for label, features, rows in self._object_matches(matched_ids):
            track = self.objects.get(label)
            if track is None or len(features) < self.config.min_object_points:
                continue
            positions_object = self.map.positions[rows]
            pixels = observation.pixels[features]

            # Image-space motion evidence under the old object pose.
            positions_world = track.pose_wo.transform(positions_object)
            displacement = reprojection_errors(
                self.camera.matrix, self._pose_cw, positions_world, pixels
            )
            median_displacement = float(np.median(displacement))
            track.last_update_frame = frame_index

            if median_displacement <= self.config.object_motion_px:
                # Object is where its pose says it is: keep the anchor.
                track.still_streak += 1
                if track.still_streak >= 10:
                    track.is_moving = False
                object_poses[label] = track.pose_wo
                continue

            # Apparent motion: re-estimate the camera-from-object pose.
            try:
                result = refine_pose(
                    self.camera,
                    track.pose_co(self._pose_cw),  # predicted T_co
                    positions_object,
                    pixels,
                )
            except ValueError:
                continue
            if result.num_inliers < self.config.min_object_points:
                continue
            # Depth-consistency gate: a small object's depth is weakly
            # constrained, so the refit can slide it along the viewing ray
            # (same projection, wrong distance).  Reject updates that
            # change the object's camera-frame depth by more than ~20% or
            # teleport it — real inter-frame motion is far smaller.
            old_depth = float(
                np.median(self._pose_cw.transform(positions_world)[:, 2])
            )
            new_points_camera = result.pose_cw.transform(positions_object)
            new_depth = float(np.median(new_points_camera[:, 2]))
            if old_depth > 1e-3 and new_depth > 1e-3:
                depth_ratio = new_depth / old_depth
            else:
                depth_ratio = np.inf
            new_pose_wo = self._pose_cw.inverse() @ result.pose_cw  # Eq. 7
            translation_delta = track.pose_wo.translation_distance_to(new_pose_wo)
            if not (0.8 < depth_ratio < 1.25) or translation_delta > 0.5 * old_depth:
                # Keep the old anchor; the evidence still says "moving".
                track.is_moving = True
                track.still_streak = 0
                moving.add(label)
                object_poses[label] = track.pose_wo
                continue
            track.is_moving = True
            track.still_streak = 0
            moving.add(label)
            track.accumulated_motion += translation_delta
            track.pose_wo = new_pose_wo
            object_poses[label] = new_pose_wo
        return object_poses, moving

    def _unlabeled_fraction(self, matched_ids: np.ndarray) -> float:
        """Fraction of features matched to unlabeled points or nothing —
        the CFRS 'new content' signal (Section V, threshold t = 0.25)."""
        total = len(matched_ids)
        if total == 0:
            return 1.0
        rows = self.map.rows(matched_ids[matched_ids >= 0])
        known = int((self.map.labels[rows] != UNLABELED).sum())
        return 1.0 - known / total

    def _create_points(self, frame_index, timestamp, observation, matched_ids):
        """Triangulate unmatched features against the newest usable recent
        frame (two-view DLT), adding them as unlabeled points."""
        partner = None
        for recent in reversed(self._recent):
            if recent.pose_cw is None:
                continue
            gap = frame_index - recent.frame_index
            if gap >= max(self.config.keyframe_interval - 2, 3):
                partner = recent
                break
        if partner is None:
            return
        unmatched_now = np.flatnonzero(matched_ids < 0)
        unmatched_then = np.flatnonzero(partner.matched_point_ids < 0)
        if len(unmatched_now) == 0 or len(unmatched_then) == 0:
            return
        matches = match_descriptors(
            observation.descriptors[unmatched_now],
            partner.observation.descriptors[unmatched_then],
            max_distance=self.config.match_max_distance,
        )
        if not matches:
            return
        matches = matches[: self.config.max_new_points_per_keyframe]
        now_rows = np.array([unmatched_now[m.query_index] for m in matches])
        then_rows = np.array([unmatched_then[m.train_index] for m in matches])
        norm_now = self.camera.normalize(observation.pixels[now_rows])
        norm_then = self.camera.normalize(partner.observation.pixels[then_rows])
        points, valid = triangulate_dlt(
            norm_then, norm_now, partner.pose_cw, self._pose_cw
        )
        # Deduplicate against the existing map: an unmatched feature may
        # still belong to a site that already has a point (its match was
        # rejected by the ratio test or gate); re-triangulating it would
        # plant a duplicate at a slightly different position.
        _, map_descriptors = self.map.descriptor_matrix()
        if len(map_descriptors):
            from ..features.brief import hamming_distance

            candidate_descriptors = observation.descriptors[now_rows]
            min_distances = hamming_distance(
                candidate_descriptors, map_descriptors
            ).min(axis=1)
            valid &= min_distances > 24
        scene_depth = self.scene_depth()
        candidates = np.flatnonzero(valid)
        pixels_now = observation.pixels[now_rows[candidates]]
        pixels_then = partner.observation.pixels[then_rows[candidates]]
        keep, parallax = self._new_point_gates(
            points[candidates], pixels_now, partner.pose_cw, pixels_then, scene_depth
        )
        chosen = candidates[keep]
        if not len(chosen):
            return
        matched_ids[now_rows[chosen]] = self.map.add_points(
            positions=points[chosen],
            descriptors=observation.descriptors[now_rows[chosen]],
            frame_index=frame_index,
            first_observation=(partner.pose_cw, pixels_then[keep]),
            last_observation=(self._pose_cw, pixels_now[keep]),
            parallax_deg=parallax[keep],
        )

    def _new_point_gates(self, points, pixels_now, pose_then, pixels_then, scene_depth):
        """(keep mask, parallax in degrees) of freshly triangulated points.

        Quality gates: the new point must lie at a plausible depth,
        reproject tightly in both views and subtend real parallax —
        otherwise its depth is noise and it would drag future pose solves.
        """
        pose_now = self._pose_cw
        depth = pose_now.transform_each(points)[:, 2]
        error_now = reprojection_errors_each(
            self.camera.matrix, pose_now.rotation, pose_now.translation,
            points, pixels_now,
        )
        error_then = reprojection_errors_each(
            self.camera.matrix, pose_then.rotation, pose_then.translation,
            points, pixels_then,
        )
        parallax = _parallax_deg(points - pose_now.center, points - pose_then.center)
        keep = ~(
            (depth <= 0.05)
            | (depth > 20.0 * scene_depth)
            | (error_now > 1.5)
            | (error_then > 1.5)
            | (parallax < 0.8)
        )
        return keep, parallax

    def _clamp_velocity(self, velocity: SE3, scene_depth: float) -> SE3:
        """Bound and damp the per-frame velocity model.

        The damping matters: translation along the optical axis of a
        centered scene is nearly cost-flat, so an undamped constant-
        velocity prior double-integrates solver noise in that direction
        into exponential runaway.  Mild decay makes the unobservable
        component mean-reverting while barely lagging real motion.
        """
        twist = velocity.log() * 0.85
        max_translation = max(0.15 * scene_depth, 0.02)
        max_rotation = np.deg2rad(12.0)
        translation_norm = float(np.linalg.norm(twist[:3]))
        rotation_norm = float(np.linalg.norm(twist[3:]))
        scale = 1.0
        if translation_norm > max_translation:
            scale = min(scale, max_translation / translation_norm)
        if rotation_norm > max_rotation:
            scale = min(scale, max_rotation / rotation_norm)
        if scale >= 1.0:
            return SE3.exp(twist)
        return SE3.exp(twist * scale)

    def _refine_structure(self, frame_index: int) -> None:
        """Re-triangulate static points whose observation baseline grew.

        Structure-only counterpart of local bundle adjustment: a point
        created from a narrow baseline carries a large depth error; once
        its first and latest observations subtend more parallax than the
        best it was ever triangulated with, recompute its position.
        """
        point_ids, positions, parallax = self._refined_structure(frame_index)
        if len(point_ids):
            self.map.refine_points(point_ids, positions, parallax)

    def _refined_structure(self, frame_index: int):
        """(point ids, new positions, parallax) of the static points seen
        at ``frame_index`` whose re-triangulation passes the gates."""
        labeled_map = self.map
        rows = np.flatnonzero(
            (labeled_map.labels <= BACKGROUND)
            & np.not_equal(labeled_map.first_poses, None)
            & np.not_equal(labeled_map.last_poses, None)
            & (labeled_map.last_seen_frames == frame_index)
        )
        positions = labeled_map.positions[rows]
        rot_first, trans_first, center_first = _pose_stack(labeled_map.first_poses[rows])
        rot_last, trans_last, center_last = _pose_stack(labeled_map.last_poses[rows])
        parallax = _parallax_deg(positions - center_first, positions - center_last)
        wider = ~(parallax < np.maximum(labeled_map.parallax[rows] * 1.3, 1.0))
        rows, parallax = rows[wider], parallax[wider]
        rot_first, trans_first = rot_first[wider], trans_first[wider]
        rot_last, trans_last = rot_last[wider], trans_last[wider]
        pixel_first = labeled_map.first_pixels[rows]
        pixel_last = labeled_map.last_pixels[rows]
        positions, valid = triangulate_dlt_each(
            self.camera.normalize(pixel_first),
            self.camera.normalize(pixel_last),
            rot_first,
            trans_first,
            rot_last,
            trans_last,
        )
        error_first = reprojection_errors_each(
            self.camera.matrix, rot_first, trans_first, positions, pixel_first
        )
        error_last = reprojection_errors_each(
            self.camera.matrix, rot_last, trans_last, positions, pixel_last
        )
        keep = valid & ~((error_first > 2.0) | (error_last > 2.0))
        return labeled_map.ids[rows[keep]], positions[keep], parallax[keep]

    def _declare_lost(self, frame_index, matched_ids) -> TrackingResult:
        self._frames_since_lost += 1
        self._consecutive_tracked = 0
        self.state = VOState.LOST
        # Freeze the pose at the last good estimate; integrating a suspect
        # velocity while lost only drives relocalization further away.
        self._velocity = SE3.identity()
        return TrackingResult(
            frame_index=frame_index,
            state=VOState.LOST,
            pose_cw=self._pose_cw,
            object_poses_wo={},
            matched_point_ids=matched_ids,
            unlabeled_match_fraction=1.0,
            num_matches=0,
        )

    # ------------------------------------------------------------------
    def _remember(self, frame_index, timestamp, observation, result) -> None:
        self._recent.append(
            _RecentFrame(
                frame_index=frame_index,
                timestamp=timestamp,
                observation=observation,
                pose_cw=result.pose_cw if result.state is VOState.TRACKING else None,
                matched_point_ids=result.matched_point_ids,
            )
        )

    def _find_recent(self, frame_index: int) -> _RecentFrame | None:
        for recent in self._recent:
            if recent.frame_index == frame_index:
                return recent
        return None

    # ------------------------------------------------------------------
    # Per-point references of the array helpers above (equivalence
    # oracles for tests/test_kernels.py and the vo.* micro cells).  They
    # walk MapPoint views one at a time, as the tracker did before the
    # map became a table of arrays.
    # ------------------------------------------------------------------
    def _visible_points_reference(self, pose_cw: SE3):
        ids = []
        positions = []
        labels = []
        for point in self.map.points:
            if point.is_object:
                track = self.objects.get(point.label)
                if track is None:
                    continue
                position_world = track.pose_wo.transform(point.position)
            else:
                position_world = point.position
            ids.append(point.point_id)
            positions.append(position_world)
            labels.append(UNLABELED if point.label is None else point.label)
        if not ids:
            return np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0, dtype=int)
        positions_arr = np.asarray(positions)
        _, _, visible = self.camera.visible_world_points(
            pose_cw, positions_arr, margin=60.0
        )
        keep = np.flatnonzero(visible)
        return (
            np.asarray(ids, dtype=int)[keep],
            positions_arr[keep],
            np.asarray(labels, dtype=int)[keep],
        )

    def _median_background_depth_reference(self) -> float | None:
        background = [
            p.position for p in self.map.points if p.is_background or p.is_unlabeled
        ]
        if not background:
            return None
        depths = self._pose_cw.transform(np.asarray(background))[:, 2]
        positive = depths[depths > 0]
        if len(positive) == 0:
            return None
        return float(np.median(positive))

    @staticmethod
    def _gate_matches_reference(pixels, matches, projected, gate: float):
        accepted = []
        for match in matches:
            error = np.linalg.norm(pixels[match.query_index] - projected[match.train_index])
            if error <= gate:
                accepted.append(match)
        return (
            np.array([m.query_index for m in accepted], dtype=int),
            np.array([m.train_index for m in accepted], dtype=int),
        )

    def _update_observations_reference(
        self, frame_index, matched_ids, static_ids, static_pixels, errors
    ) -> None:
        for point_id in matched_ids[matched_ids >= 0]:
            point = self.map.get(int(point_id))
            point.last_seen_frame = max(point.last_seen_frame, frame_index)
            point.observation_count += 1
        for point_id, pixel, error in zip(static_ids, static_pixels, errors):
            point = self.map.get(int(point_id))
            if error < 3.0:
                point.last_observation = (self._pose_cw, pixel.copy())
                if point.first_observation is None:
                    point.first_observation = point.last_observation
            elif error > 4.0:
                point.outlier_count += 1

    def _object_matches_reference(self, matched_ids: np.ndarray):
        by_label: dict[int, list[tuple[int, int]]] = {}
        for feature_index, point_id in enumerate(matched_ids):
            if point_id < 0:
                continue
            point = self.map.get(int(point_id))
            if point.is_object:
                by_label.setdefault(point.label, []).append((feature_index, point_id))
        return [
            (
                label,
                np.array([f for f, _ in pairs], dtype=int),
                self.map.rows(np.array([p for _, p in pairs], dtype=int)),
            )
            for label, pairs in by_label.items()
        ]

    def _unlabeled_fraction_reference(self, matched_ids: np.ndarray) -> float:
        total = len(matched_ids)
        if total == 0:
            return 1.0
        known = 0
        for point_id in matched_ids:
            if point_id < 0:
                continue
            if not self.map.get(int(point_id)).is_unlabeled:
                known += 1
        return 1.0 - known / total

    def _new_point_gates_reference(
        self, points, pixels_now, pose_then, pixels_then, scene_depth
    ):
        keep = np.zeros(len(points), dtype=bool)
        parallax = np.zeros(len(points))
        center_now = self._pose_cw.center
        center_then = pose_then.center
        for i in range(len(points)):
            depth = (self._pose_cw.transform(points[i]))[2]
            error_now = reprojection_errors(
                self.camera.matrix, self._pose_cw, points[i][None], pixels_now[i][None]
            )[0]
            error_then = reprojection_errors(
                self.camera.matrix, pose_then, points[i][None], pixels_then[i][None]
            )[0]
            ray_now = points[i] - center_now
            ray_then = points[i] - center_then
            cosine = np.dot(ray_now, ray_then) / max(
                np.linalg.norm(ray_now) * np.linalg.norm(ray_then), 1e-12
            )
            parallax[i] = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))
            keep[i] = not (
                depth <= 0.05
                or depth > 20.0 * scene_depth
                or error_now > 1.5
                or error_then > 1.5
                or parallax[i] < 0.8
            )
        return keep, parallax

    def _refined_structure_reference(self, frame_index: int):
        ids, positions, parallaxes = [], [], []
        for point in self.map.points:
            if point.is_object:
                continue
            if point.first_observation is None or point.last_observation is None:
                continue
            if point.last_seen_frame != frame_index:
                continue
            pose_first, pixel_first = point.first_observation
            pose_last, pixel_last = point.last_observation
            ray_first = point.position - pose_first.center
            ray_last = point.position - pose_last.center
            denom = max(
                np.linalg.norm(ray_first) * np.linalg.norm(ray_last), 1e-12
            )
            cosine = float(np.dot(ray_first, ray_last)) / denom
            parallax = float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))
            if parallax < max(point.parallax_quality_deg * 1.3, 1.0):
                continue
            norm_first = self.camera.normalize(pixel_first[None])
            norm_last = self.camera.normalize(pixel_last[None])
            refined, valid = _triangulate_dlt_reference(
                norm_first, norm_last, pose_first, pose_last
            )
            if not valid[0]:
                continue
            error_first = reprojection_errors(
                self.camera.matrix, pose_first, refined, pixel_first[None]
            )[0]
            error_last = reprojection_errors(
                self.camera.matrix, pose_last, refined, pixel_last[None]
            )[0]
            if error_first > 2.0 or error_last > 2.0:
                continue
            ids.append(point.point_id)
            positions.append(refined[0])
            parallaxes.append(parallax)
        return (
            np.array(ids, dtype=np.int64),
            np.array(positions).reshape(-1, 3),
            np.array(parallaxes),
        )


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair: a stacked (1, n) @ (n, 1) matmul runs
    the same ``ddot`` as ``np.dot``/``np.linalg.norm`` on one row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _parallax_deg(rays_a: np.ndarray, rays_b: np.ndarray) -> np.ndarray:
    """Angle in degrees between each pair of rays (rows)."""
    norms = np.sqrt(_row_dot(rays_a, rays_a)) * np.sqrt(_row_dot(rays_b, rays_b))
    cosine = _row_dot(rays_a, rays_b) / np.maximum(norms, 1e-12)
    return np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))


def _pose_stack(poses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rotations, translations, centers) of a sequence of SE3 poses, as
    (N, 3, 3)/(N, 3)/(N, 3) stacks; each distinct pose is read once (the
    observations of one frame share its pose object)."""
    index: dict[int, int] = {}
    distinct: list[SE3] = []
    codes = np.empty(len(poses), dtype=np.int64)
    for row, pose in enumerate(poses):
        code = index.setdefault(id(pose), len(distinct))
        if code == len(distinct):
            distinct.append(pose)
        codes[row] = code
    if not distinct:
        return np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3))
    return (
        np.stack([pose.rotation for pose in distinct])[codes],
        np.stack([pose.translation for pose in distinct])[codes],
        np.stack([pose.center for pose in distinct])[codes],
    )
