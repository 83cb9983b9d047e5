"""The labeled 3-D map.

Unlike a vanilla SLAM map, every point in edgeIS's map carries an instance
annotation (Section III-A): ``label is None`` means the point has not been
covered by any segmentation result yet ("unlabeled", the yellow points of
Fig. 8b), ``label == 0`` means confirmed background, and ``label > 0``
names the object instance the point belongs to.

Points belonging to an object are stored in that *object's* frame, anchored
to the object pose at its first observation.  Background points live in the
world frame.  This is what lets the tracker solve the device pose relative
to each object independently (Eq. 6-7) and keeps moving-object points
consistent.

The points are stored as parallel arrays, one row per point, kept in
insertion order (which is point-id order: ids are handed out
monotonically).  The tracker reads and updates whole columns at once;
:class:`MapPoint` is a thin view of one row for code that wants a single
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.se3 import SE3
from ..image.masks import InstanceMask

__all__ = ["MapPoint", "KeyframeRecord", "LabeledMap", "UNLABELED"]

BACKGROUND = 0
UNLABELED = -1  # the label column's value for ``label is None``

# Column name -> (dtype, per-row shape).  Object columns hold the SE3 pose
# of a point's first/last observation (None until it has one).
_COLUMNS = {
    "_ids": (np.int64, ()),
    "_positions": (np.float64, (3,)),
    "_descriptors": (np.uint8, (32,)),
    "_labels": (np.int64, ()),
    "_class_labels": (object, ()),
    "_first_frames": (np.int64, ()),
    "_last_seen": (np.int64, ()),
    "_observation_counts": (np.int64, ()),
    "_outlier_counts": (np.int64, ()),
    "_parallax": (np.float64, ()),
    "_first_poses": (object, ()),
    "_first_pixels": (np.float64, (2,)),
    "_last_poses": (object, ()),
    "_last_pixels": (np.float64, (2,)),
}


def _row_property(column: str, to_python, doc: str) -> property:
    def get(self):
        return to_python(getattr(self._map, column)[self._map._row(self.point_id)])

    def set(self, value):
        getattr(self._map, column)[self._map._row(self.point_id)] = value

    return property(get, set, doc=doc)


def _observation_property(poses: str, pixels: str, doc: str) -> property:
    def get(self):
        row = self._map._row(self.point_id)
        pose = getattr(self._map, poses)[row]
        if pose is None:
            return None
        return pose, getattr(self._map, pixels)[row].copy()

    def set(self, value):
        row = self._map._row(self.point_id)
        if value is None:
            getattr(self._map, poses)[row] = None
            return
        getattr(self._map, poses)[row] = value[0]
        getattr(self._map, pixels)[row] = value[1]

    return property(get, set, doc=doc)


class MapPoint:
    """View of one triangulated 3-D point with an instance annotation.

    Reading an attribute reads the map's row for ``point_id``; assigning
    one writes it.  ``position`` and ``descriptor`` return copies.
    ``first_observation``/``last_observation`` are ``(pose_cw, pixel)``
    pairs used for structure refinement: as the baseline between them
    grows, the point is re-triangulated with better parallax
    (``parallax_quality_deg`` records the best parallax achieved so far).
    """

    __slots__ = ("_map", "point_id")

    def __init__(self, labeled_map: "LabeledMap", point_id: int):
        self._map = labeled_map
        self.point_id = int(point_id)

    # World frame if label in (None, 0); object frame otherwise.
    position = _row_property("_positions", np.copy, "(3,) position")
    descriptor = _row_property("_descriptors", np.copy, "(32,) uint8 descriptor")
    class_label = _row_property("_class_labels", str, "class name")
    first_frame = _row_property("_first_frames", int, "frame of creation")
    last_seen_frame = _row_property("_last_seen", int, "last matched frame")
    observation_count = _row_property("_observation_counts", int, "times matched")
    outlier_count = _row_property(
        "_outlier_counts", int, "times this point failed the pose-inlier test"
    )
    parallax_quality_deg = _row_property(
        "_parallax", float, "best triangulation parallax so far"
    )
    first_observation = _observation_property(
        "_first_poses", "_first_pixels", "(pose_cw, pixel) of the first observation"
    )
    last_observation = _observation_property(
        "_last_poses", "_last_pixels", "(pose_cw, pixel) of the freshest observation"
    )

    @property
    def label(self) -> int | None:
        """None = unlabeled, 0 = background, >0 = instance."""
        value = int(self._map._labels[self._map._row(self.point_id)])
        return None if value == UNLABELED else value

    @label.setter
    def label(self, value: int | None) -> None:
        row = self._map._row(self.point_id)
        self._map._labels[row] = UNLABELED if value is None else value

    @property
    def is_unlabeled(self) -> bool:
        return self.label is None

    @property
    def is_background(self) -> bool:
        return self.label == BACKGROUND

    @property
    def is_object(self) -> bool:
        return self.label is not None and self.label > 0

    def __repr__(self) -> str:
        return f"MapPoint(point_id={self.point_id}, label={self.label})"


@dataclass
class KeyframeRecord:
    """A frame whose observations the map remembers.

    ``point_ids[i]`` is the map point matched to ``pixels[i]`` (or -1 for
    features that matched nothing).  ``masks`` arrives asynchronously when
    the edge returns the frame's segmentation; ``None`` until then.
    """

    frame_index: int
    timestamp: float
    pose_cw: SE3
    pixels: np.ndarray  # (N, 2) feature pixels
    point_ids: np.ndarray  # (N,) int
    masks: list[InstanceMask] | None = None
    object_poses_co: dict[int, SE3] = field(default_factory=dict)

    @property
    def has_masks(self) -> bool:
        return self.masks is not None

    def mask_for(self, instance_id: int) -> InstanceMask | None:
        if self.masks is None:
            return None
        for mask in self.masks:
            if mask.instance_id == instance_id:
                return mask
        return None


class LabeledMap:
    """Point registry + keyframe registry with label bookkeeping.

    The column properties (``ids``, ``positions``, ``labels``, ...) are
    views of the live rows in insertion order; a view is valid until the
    next point is added or removed.  Write through the methods.
    """

    def __init__(self, max_points: int = 4000, cull_after_frames: int = 90):
        self.max_points = max_points
        self.cull_after_frames = cull_after_frames
        self._size = 0
        for column, (dtype, shape) in _COLUMNS.items():
            setattr(self, column, np.empty((0, *shape), dtype=dtype))
        self._keyframes: dict[int, KeyframeRecord] = {}
        self._next_point_id = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever point positions or labels
        change — consumers (mask transfer) key derived-array caches on it."""
        return self._version

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        return self._ids[: self._size]

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self._size]

    @property
    def descriptors(self) -> np.ndarray:
        return self._descriptors[: self._size]

    @property
    def labels(self) -> np.ndarray:
        """Label column: ``UNLABELED`` (-1), ``BACKGROUND`` (0) or an
        instance id."""
        return self._labels[: self._size]

    @property
    def last_seen_frames(self) -> np.ndarray:
        return self._last_seen[: self._size]

    @property
    def parallax(self) -> np.ndarray:
        return self._parallax[: self._size]

    @property
    def first_poses(self) -> np.ndarray:
        return self._first_poses[: self._size]

    @property
    def first_pixels(self) -> np.ndarray:
        return self._first_pixels[: self._size]

    @property
    def last_poses(self) -> np.ndarray:
        return self._last_poses[: self._size]

    @property
    def last_pixels(self) -> np.ndarray:
        return self._last_pixels[: self._size]

    def rows(self, point_ids) -> np.ndarray:
        """Row index of each (live) point id."""
        return np.searchsorted(self.ids, point_ids)

    def _row(self, point_id: int) -> int:
        row = int(np.searchsorted(self.ids, point_id))
        if row == self._size or self._ids[row] != point_id:
            raise KeyError(point_id)
        return row

    # ------------------------------------------------------------------
    # Points
    # ------------------------------------------------------------------
    def _append(self, count: int) -> slice:
        """Reserve ``count`` new rows (capacity doubles) and give them
        fresh ids; the caller fills the other columns."""
        start, end = self._size, self._size + count
        if end > len(self._ids):
            capacity = max(end, 2 * len(self._ids), 64)
            for column in _COLUMNS:
                old = getattr(self, column)
                grown = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
                grown[:start] = old[:start]
                setattr(self, column, grown)
        rows = slice(start, end)
        self._ids[rows] = np.arange(self._next_point_id, self._next_point_id + count)
        self._class_labels[rows] = "unknown"
        self._observation_counts[rows] = 1
        self._outlier_counts[rows] = 0
        self._parallax[rows] = 0.0
        self._first_poses[rows] = None
        self._last_poses[rows] = None
        self._next_point_id += count
        self._size = end
        self._version += 1
        return rows

    def add_point(
        self,
        position: np.ndarray,
        descriptor: np.ndarray,
        label: int | None = None,
        class_label: str = "unknown",
        frame_index: int = 0,
    ) -> MapPoint:
        rows = self._append(1)
        self._positions[rows] = position
        self._descriptors[rows] = descriptor
        self._labels[rows] = UNLABELED if label is None else label
        self._class_labels[rows] = class_label
        self._first_frames[rows] = frame_index
        self._last_seen[rows] = frame_index
        return MapPoint(self, self._ids[rows.start])

    def add_points(
        self,
        positions: np.ndarray,
        descriptors: np.ndarray,
        frame_index: int,
        first_observation: tuple[SE3, np.ndarray],
        last_observation: tuple[SE3, np.ndarray],
        parallax_deg,
    ) -> np.ndarray:
        """Add unlabeled points seen from two poses; returns their ids.

        ``first_observation``/``last_observation`` pair one pose with one
        pixel per point; ``parallax_deg`` is a scalar or one per point.
        """
        rows = self._append(len(positions))
        self._positions[rows] = positions
        self._descriptors[rows] = descriptors
        self._labels[rows] = UNLABELED
        self._first_frames[rows] = frame_index
        self._last_seen[rows] = frame_index
        self._first_poses[rows] = first_observation[0]
        self._first_pixels[rows] = first_observation[1]
        self._last_poses[rows] = last_observation[0]
        self._last_pixels[rows] = last_observation[1]
        self._parallax[rows] = parallax_deg
        return self._ids[rows].copy()

    def get(self, point_id: int) -> MapPoint:
        self._row(point_id)
        return MapPoint(self, point_id)

    def __contains__(self, point_id: int) -> bool:
        row = int(np.searchsorted(self.ids, point_id))
        return row < self._size and self._ids[row] == point_id

    def __len__(self) -> int:
        return self._size

    @property
    def points(self) -> list[MapPoint]:
        return [MapPoint(self, point_id) for point_id in self.ids.tolist()]

    def points_with_label(self, label: int | None) -> list[MapPoint]:
        value = UNLABELED if label is None else label
        return [
            MapPoint(self, point_id)
            for point_id in self.ids[self.labels == value].tolist()
        ]

    def object_labels(self) -> list[int]:
        return np.unique(self.labels[self.labels > 0]).tolist()

    def descriptor_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(point_ids, (N, 32) descriptor stack) over all live points, as
        views valid until the map changes."""
        return self.ids, self.descriptors

    def touch(self, point_ids, frame_index: int) -> None:
        """Count one more observation of each point, seen at ``frame_index``."""
        rows = self.rows(np.atleast_1d(point_ids))
        np.maximum.at(self._last_seen, rows, frame_index)
        np.add.at(self._observation_counts, rows, 1)

    def relabel(self, point_id: int, label: int, class_label: str) -> None:
        row = self._row(point_id)
        self._labels[row] = label
        self._class_labels[row] = class_label
        self._version += 1

    def record_observations(self, point_ids, pose_cw: SE3, pixels: np.ndarray) -> None:
        """Make ``(pose_cw, pixels[i])`` the freshest observation of each
        point, and its first one where it has none yet."""
        rows = self.rows(point_ids)
        self._last_poses[rows] = pose_cw
        self._last_pixels[rows] = pixels
        unseen = rows[np.equal(self._first_poses[rows], None)]
        self._first_poses[unseen] = pose_cw
        self._first_pixels[unseen] = self._last_pixels[unseen]

    def count_outliers(self, point_ids) -> None:
        np.add.at(self._outlier_counts, self.rows(point_ids), 1)

    def refine_points(self, point_ids, positions: np.ndarray, parallax_deg) -> None:
        """Move re-triangulated points and record their parallax."""
        rows = self.rows(point_ids)
        self._positions[rows] = positions
        self._parallax[rows] = parallax_deg
        self._version += 1

    def remove(self, point_ids) -> int:
        """Delete the given points; returns how many were live."""
        drop = np.isin(self.ids, point_ids)
        removed = int(drop.sum())
        if removed:
            self._keep_rows(~drop)
            self._version += 1
        return removed

    def _keep_rows(self, keep: np.ndarray) -> None:
        size = self._size
        kept = int(keep.sum())
        for column in _COLUMNS:
            array = getattr(self, column)
            array[:kept] = array[:size][keep]
            if array.dtype == object:
                array[kept:size] = None  # release the dropped poses
        self._size = kept

    def unlabeled_mask(self, point_ids) -> np.ndarray:
        """Per id: whether it names a live point that is still unlabeled."""
        point_ids = np.asarray(point_ids)
        if not self._size:
            return np.zeros(point_ids.shape, dtype=bool)
        rows = np.minimum(self.rows(point_ids), self._size - 1)
        return (self.ids[rows] == point_ids) & (self.labels[rows] == UNLABELED)

    def unlabeled_fraction(self) -> float:
        if not self._size:
            return 1.0
        return int((self.labels == UNLABELED).sum()) / self._size

    # ------------------------------------------------------------------
    # Keyframes
    # ------------------------------------------------------------------
    def add_keyframe(self, record: KeyframeRecord) -> None:
        self._keyframes[record.frame_index] = record

    def keyframe(self, frame_index: int) -> KeyframeRecord | None:
        return self._keyframes.get(frame_index)

    @property
    def keyframes(self) -> list[KeyframeRecord]:
        return [self._keyframes[k] for k in sorted(self._keyframes)]

    def keyframes_with_masks(self) -> list[KeyframeRecord]:
        return [k for k in self.keyframes if k.has_masks]

    # ------------------------------------------------------------------
    # Memory management (the paper's "additional clearing algorithm",
    # Section VI-F1: periodically clear data of low utilization).
    # ------------------------------------------------------------------
    def cull(self, current_frame: int) -> int:
        """Drop stale points and overflow beyond ``max_points``.

        Returns the number of points removed.  Keyframes older than
        ``current_frame - 2 * cull_after_frames`` are dropped too, except
        keyframes that still hold the freshest mask of some instance.
        """
        last_seen = self.last_seen_frames
        observations = self._observation_counts[: self._size]
        outliers = self._outlier_counts[: self._size]
        drop = (last_seen < current_frame - self.cull_after_frames) | (
            # Chronic outliers (ghost points from a bad pose episode or
            # duplicate triangulations) get flushed once the evidence is in.
            (observations >= 6) & (outliers > 0.6 * observations)
        )
        survivors = np.flatnonzero(~drop)
        overflow = len(survivors) - self.max_points
        if overflow > 0:
            # Evict least-recently-seen, least-observed first (a stable
            # sort, so ties go oldest first).
            ranked = np.lexsort(
                (observations[survivors], last_seen[survivors])
            )
            drop[survivors[ranked[:overflow]]] = True
        removed = int(drop.sum())
        if removed:
            self._keep_rows(~drop)
            self._version += 1

        self._cull_keyframes(current_frame)
        return removed

    def _cull_keyframes(self, current_frame: int) -> None:
        # Keep the newest masked keyframe per instance, plus anything recent.
        keep: set[int] = set()
        newest_mask_frame: dict[int, int] = {}
        for record in self.keyframes:
            if record.masks is None:
                continue
            for mask in record.masks:
                if record.frame_index >= newest_mask_frame.get(mask.instance_id, -1):
                    newest_mask_frame[mask.instance_id] = record.frame_index
        keep.update(newest_mask_frame.values())
        recent_cutoff = current_frame - 2 * self.cull_after_frames
        for frame_index in list(self._keyframes):
            if frame_index < recent_cutoff and frame_index not in keep:
                del self._keyframes[frame_index]

    def memory_bytes(self) -> int:
        """Rough live-memory estimate for the resource model (Fig. 15)."""
        point_bytes = len(self) * (3 * 8 + 32 + 64)
        keyframe_bytes = 0
        for record in self._keyframes.values():
            keyframe_bytes += record.pixels.nbytes + record.point_ids.nbytes + 256
            if record.masks:
                keyframe_bytes += sum(m.mask.size // 8 for m in record.masks)
        return point_bytes + keyframe_bytes
