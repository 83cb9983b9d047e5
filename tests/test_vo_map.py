"""Unit tests for the labeled map."""

import numpy as np
import pytest

from repro.geometry import SE3
from repro.image import InstanceMask
from repro.vo import BACKGROUND, KeyframeRecord, LabeledMap


def make_map(**kwargs):
    return LabeledMap(**kwargs)


def add_points(labeled_map, count, label=None, frame_index=0):
    rng = np.random.default_rng(0)
    points = []
    for _ in range(count):
        points.append(
            labeled_map.add_point(
                position=rng.normal(size=3),
                descriptor=rng.integers(0, 256, 32, dtype=np.uint8),
                label=label,
                frame_index=frame_index,
            )
        )
    return points


class TestPoints:
    def test_add_and_get(self):
        labeled_map = make_map()
        point = labeled_map.add_point([1, 2, 3], np.zeros(32, np.uint8))
        fetched = labeled_map.get(point.point_id)
        # Points are rows of the map's arrays: get() returns a fresh view
        # of the same row, not the same object.
        assert fetched.point_id == point.point_id
        assert np.array_equal(fetched.position, [1.0, 2.0, 3.0])
        fetched.label = 4
        assert point.label == 4
        assert point.point_id in labeled_map
        assert len(labeled_map) == 1

    def test_ids_are_unique_and_monotonic(self):
        labeled_map = make_map()
        points = add_points(labeled_map, 10)
        ids = [p.point_id for p in points]
        assert ids == sorted(set(ids))

    def test_label_predicates(self):
        labeled_map = make_map()
        unlabeled = labeled_map.add_point([0, 0, 1], np.zeros(32, np.uint8))
        background = labeled_map.add_point(
            [0, 0, 2], np.zeros(32, np.uint8), label=BACKGROUND
        )
        instance = labeled_map.add_point(
            [0, 0, 3], np.zeros(32, np.uint8), label=7, class_label="car"
        )
        assert unlabeled.is_unlabeled and not unlabeled.is_object
        assert background.is_background and not background.is_object
        assert instance.is_object and not instance.is_unlabeled

    def test_relabel(self):
        labeled_map = make_map()
        point = labeled_map.add_point([0, 0, 1], np.zeros(32, np.uint8))
        labeled_map.relabel(point.point_id, 3, "person")
        assert point.label == 3 and point.class_label == "person"

    def test_unlabeled_fraction(self):
        labeled_map = make_map()
        add_points(labeled_map, 3)
        add_points(labeled_map, 1, label=BACKGROUND)
        assert labeled_map.unlabeled_fraction() == pytest.approx(0.75)
        assert make_map().unlabeled_fraction() == 1.0

    def test_descriptor_matrix_shapes(self):
        labeled_map = make_map()
        ids, descriptors = labeled_map.descriptor_matrix()
        assert len(ids) == 0 and descriptors.shape == (0, 32)
        add_points(labeled_map, 5)
        ids, descriptors = labeled_map.descriptor_matrix()
        assert len(ids) == 5 and descriptors.shape == (5, 32)

    def test_object_labels_sorted(self):
        labeled_map = make_map()
        add_points(labeled_map, 1, label=5)
        add_points(labeled_map, 1, label=2)
        add_points(labeled_map, 1, label=BACKGROUND)
        assert labeled_map.object_labels() == [2, 5]


class TestCulling:
    def test_stale_points_culled(self):
        labeled_map = make_map(cull_after_frames=10)
        add_points(labeled_map, 5, frame_index=0)
        fresh = add_points(labeled_map, 2, frame_index=50)
        removed = labeled_map.cull(current_frame=50)
        assert removed == 5
        assert len(labeled_map) == 2
        assert all(p.point_id in labeled_map for p in fresh)

    def test_overflow_evicts_least_recent(self):
        labeled_map = make_map(max_points=5, cull_after_frames=1000)
        old = add_points(labeled_map, 5, frame_index=0)
        new = add_points(labeled_map, 3, frame_index=9)
        labeled_map.cull(current_frame=10)
        assert len(labeled_map) == 5
        assert all(p.point_id in labeled_map for p in new)

    def test_chronic_outliers_culled(self):
        labeled_map = make_map(cull_after_frames=1000)
        (point,) = add_points(labeled_map, 1, frame_index=0)
        point.observation_count = 10
        point.outlier_count = 9
        point.last_seen_frame = 10
        labeled_map.cull(current_frame=10)
        assert point.point_id not in labeled_map

    def test_touch_updates_recency(self):
        labeled_map = make_map(cull_after_frames=10)
        (point,) = add_points(labeled_map, 1, frame_index=0)
        labeled_map.touch(point.point_id, 100)
        labeled_map.cull(current_frame=105)
        assert point.point_id in labeled_map
        assert point.observation_count == 2


class TestKeyframes:
    def make_record(self, frame_index, masks=None):
        return KeyframeRecord(
            frame_index=frame_index,
            timestamp=frame_index / 30.0,
            pose_cw=SE3.identity(),
            pixels=np.zeros((4, 2)),
            point_ids=np.full(4, -1),
            masks=masks,
        )

    def test_add_and_lookup(self):
        labeled_map = make_map()
        labeled_map.add_keyframe(self.make_record(5))
        assert labeled_map.keyframe(5) is not None
        assert labeled_map.keyframe(6) is None

    def test_keyframes_sorted(self):
        labeled_map = make_map()
        for index in (9, 3, 7):
            labeled_map.add_keyframe(self.make_record(index))
        assert [k.frame_index for k in labeled_map.keyframes] == [3, 7, 9]

    def test_keyframes_with_masks_filter(self):
        labeled_map = make_map()
        labeled_map.add_keyframe(self.make_record(1))
        mask = InstanceMask(1, "car", np.ones((4, 4), bool))
        labeled_map.add_keyframe(self.make_record(2, masks=[mask]))
        with_masks = labeled_map.keyframes_with_masks()
        assert [k.frame_index for k in with_masks] == [2]
        assert with_masks[0].mask_for(1) is mask
        assert with_masks[0].mask_for(99) is None

    def test_keyframe_cull_keeps_newest_masked(self):
        labeled_map = make_map(cull_after_frames=10)
        mask = InstanceMask(1, "car", np.ones((4, 4), bool))
        labeled_map.add_keyframe(self.make_record(0, masks=[mask]))
        labeled_map.add_keyframe(self.make_record(1))
        labeled_map.cull(current_frame=500)
        # Unmasked old keyframe culled; masked one retained (newest mask
        # for instance 1).
        assert labeled_map.keyframe(1) is None
        assert labeled_map.keyframe(0) is not None

    def test_keyframe_cull_rule(self):
        # Culling keeps every keyframe from the last 2 * cull_after_frames
        # frames and, beyond that, only each instance's newest masked
        # keyframe; how old the surviving points are plays no part.
        labeled_map = make_map(cull_after_frames=10)
        add_points(labeled_map, 2, frame_index=0)
        car = InstanceMask(1, "car", np.ones((4, 4), bool))
        person = InstanceMask(2, "person", np.ones((4, 4), bool))
        labeled_map.add_keyframe(self.make_record(5, masks=[car, person]))
        labeled_map.add_keyframe(self.make_record(30, masks=[car]))
        for index in (60, 79, 80, 95):
            labeled_map.add_keyframe(self.make_record(index))
        labeled_map.touch([0, 1], 100)
        labeled_map.cull(current_frame=100)
        assert len(labeled_map) == 2
        # Cutoff 100 - 2 * 10 = 80: 60 and 79 go; 5 stays for the person,
        # 30 for the car (5 is no longer the car's newest mask).
        assert [k.frame_index for k in labeled_map.keyframes] == [5, 30, 80, 95]
        labeled_map.add_keyframe(self.make_record(96, masks=[person]))
        labeled_map.cull(current_frame=200)
        assert [k.frame_index for k in labeled_map.keyframes] == [30, 96]

    def test_memory_estimate_grows(self):
        labeled_map = make_map()
        empty = labeled_map.memory_bytes()
        add_points(labeled_map, 100)
        labeled_map.add_keyframe(self.make_record(1))
        assert labeled_map.memory_bytes() > empty
