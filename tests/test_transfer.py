"""Unit tests for the MAMT mask-transfer engine (Section III-C)."""

import numpy as np
import pytest

from repro.geometry import SE3, PinholeCamera
from repro.image import InstanceMask, fill_contour, mask_iou
from repro.transfer import MaskTransferEngine, TransferConfig
from repro.transfer.mask_transfer import K_NEAREST_FEATURES
from repro.vo import KeyframeRecord, VisualOdometry
from repro.vo.odometry import ObjectTrack


@pytest.fixture
def camera():
    return PinholeCamera.with_fov(320, 240, 64.0)


def build_vo_with_object(camera, instance_id=1, moved_pose=None):
    """Hand-assemble a VO state: one object with labeled points and one
    masked keyframe, so the transfer path can run in isolation."""
    vo = VisualOdometry(camera)
    vo._pose_cw = SE3.identity() if moved_pose is None else moved_pose
    vo.state = type(vo.state).TRACKING

    # Object: a 1 m square plate at z = 5, sampled points on it.
    rng = np.random.default_rng(0)
    points_object = np.column_stack(
        [
            rng.uniform(-0.5, 0.5, 40),
            rng.uniform(-0.5, 0.5, 40),
            np.full(40, 5.0),
        ]
    )
    track = ObjectTrack(instance_id=instance_id, class_label="plate")
    vo.objects[instance_id] = track
    for point in points_object:
        vo.map.add_point(
            point, np.zeros(32, np.uint8), label=instance_id, class_label="plate"
        )

    # Source keyframe at the identity pose with the plate's true mask.
    corners_camera = np.array(
        [
            [-0.5, -0.5, 5.0],
            [0.5, -0.5, 5.0],
            [0.5, 0.5, 5.0],
            [-0.5, 0.5, 5.0],
        ]
    )
    pixels, _ = camera.project(corners_camera)
    mask = fill_contour(pixels[:, ::-1], (camera.height, camera.width))
    record = KeyframeRecord(
        frame_index=0,
        timestamp=0.0,
        pose_cw=SE3.identity(),
        pixels=np.zeros((0, 2)),
        point_ids=np.zeros(0, dtype=int),
        masks=[InstanceMask(instance_id, "plate", mask)],
    )
    record.object_poses_co[instance_id] = SE3.identity()
    vo.map.add_keyframe(record)
    return vo, mask


class TestTransferGeometry:
    def test_identity_transfer_reproduces_mask(self, camera):
        vo, mask = build_vo_with_object(camera)
        engine = MaskTransferEngine(camera)
        predictions = engine.predict(vo)
        assert len(predictions) == 1
        assert mask_iou(predictions[0].mask.mask, mask) > 0.93

    def test_translated_camera_shifts_mask(self, camera):
        moved = SE3(np.eye(3), np.array([0.5, 0.0, 0.0]))  # camera-from-world
        vo, mask = build_vo_with_object(camera, moved_pose=moved)
        engine = MaskTransferEngine(camera)
        predictions = engine.predict(vo)
        assert len(predictions) == 1
        predicted = predictions[0].mask.mask
        # World shifted +x in camera coords -> pixels shift +u by fx*0.5/5.
        expected_shift = camera.fx * 0.5 / 5.0
        cols_pred = np.flatnonzero(predicted.any(axis=0))
        cols_orig = np.flatnonzero(mask.any(axis=0))
        measured = cols_pred.mean() - cols_orig.mean()
        assert measured == pytest.approx(expected_shift, abs=3)

    def test_approach_scales_mask_up(self, camera):
        moved = SE3(np.eye(3), np.array([0.0, 0.0, -2.0]))  # 2 m closer (P_c = P_w + t)
        vo, mask = build_vo_with_object(camera, moved_pose=moved)
        engine = MaskTransferEngine(camera)
        predictions = engine.predict(vo)
        assert len(predictions) == 1
        # Depth 5 -> 3: area scales by (5/3)^2 ~ 2.8.
        ratio = predictions[0].mask.area / max(mask.sum(), 1)
        assert 2.0 < ratio < 3.8

    def test_object_motion_compensated(self, camera):
        # The object moved +0.4 m in x; the camera stayed.  The engine
        # must use the camera-from-object relative transform.
        vo, mask = build_vo_with_object(camera)
        track = vo.objects[1]
        track.pose_wo = SE3(np.eye(3), np.array([0.4, 0.0, 0.0]))
        engine = MaskTransferEngine(camera)
        predictions = engine.predict(vo)
        assert len(predictions) == 1
        predicted = predictions[0].mask.mask
        expected_shift = camera.fx * 0.4 / 5.0
        cols_pred = np.flatnonzero(predicted.any(axis=0))
        cols_orig = np.flatnonzero(mask.any(axis=0))
        assert cols_pred.mean() - cols_orig.mean() == pytest.approx(
            expected_shift, abs=4
        )


class TestTransferGates:
    def test_no_pose_no_predictions(self, camera):
        vo = VisualOdometry(camera)
        assert MaskTransferEngine(camera).predict(vo) == []

    def test_too_few_object_points(self, camera):
        vo, _ = build_vo_with_object(camera)
        # Strip the object's points below the minimum.
        vo.map.remove(
            [p.point_id for p in vo.map.points if p.label == 1 and p.point_id > 1]
        )
        engine = MaskTransferEngine(
            camera, TransferConfig(min_object_features=5)
        )
        assert engine.predict(vo) == []

    def test_view_angle_gate(self, camera):
        vo, _ = build_vo_with_object(camera)
        # Rotate the camera far beyond the view-angle budget.
        from repro.geometry import so3_exp

        vo._pose_cw = SE3(so3_exp([0.0, np.deg2rad(80), 0.0]), np.zeros(3))
        engine = MaskTransferEngine(camera, TransferConfig(max_view_angle_deg=45))
        assert engine.predict(vo) == []

    def test_k_nearest_default_is_papers_five(self):
        assert K_NEAREST_FEATURES == 5
        assert TransferConfig().k_nearest == 5

    def test_behind_camera_object_skipped(self, camera):
        vo, _ = build_vo_with_object(camera)
        vo._pose_cw = SE3(np.eye(3), np.array([0.0, 0.0, -12.0]))  # walked past the object
        engine = MaskTransferEngine(camera)
        predictions = engine.predict(vo)
        assert predictions == []


class TestTransferCaches:
    """Per-keyframe work is done once: the resampled contour lives as long
    as its keyframe keeps that mask, the back-projection as long as the
    map version too."""

    def test_contour_traced_once_per_keyframe_mask(self, camera, monkeypatch):
        import repro.transfer.mask_transfer as mask_transfer

        traced = []
        original = mask_transfer.largest_contour
        monkeypatch.setattr(
            mask_transfer,
            "largest_contour",
            lambda mask: traced.append(1) or original(mask),
        )
        vo, _ = build_vo_with_object(camera)
        engine = MaskTransferEngine(camera)
        first = engine.predict(vo)
        vo._pose_cw = SE3(np.eye(3), np.array([0.1, 0.0, 0.0]))
        second = engine.predict(vo)
        assert len(first) == len(second) == 1
        assert len(traced) == 1
        # A map change invalidates the depths, not the contour.
        version = vo.map.version
        vo.map.relabel(0, 1, "plate")
        assert vo.map.version > version
        engine.predict(vo)
        assert len(traced) == 1

    def test_replaced_masks_drop_the_cached_contour(self, camera):
        vo, mask = build_vo_with_object(camera)
        engine = MaskTransferEngine(camera)
        before = engine.predict(vo)[0].mask.area
        cached_mask, _ = engine._contours[(0, 1)]
        # The edge returns a new segmentation of the same keyframe: the
        # right half of the plate only.
        half = mask.copy()
        half[:, : camera.width // 2] = False
        assert vo.apply_segmentation(0, [InstanceMask(1, "plate", half)])
        after = engine.predict(vo)[0].mask.area
        new_mask, _ = engine._contours[(0, 1)]
        assert new_mask is not cached_mask
        assert new_mask is vo.map.keyframe(0).mask_for(1)
        assert engine._backprojections[(0, 1)][0] is new_mask
        assert after < 0.75 * before

    def test_culled_keyframe_drops_its_cache_entries(self, camera):
        vo, mask = build_vo_with_object(camera)
        engine = MaskTransferEngine(camera)
        engine.predict(vo)
        assert (0, 1) in engine._contours and (0, 1) in engine._backprojections
        # A newer keyframe holds the instance's freshest mask, so culling
        # far in the future drops keyframe 0.
        record = KeyframeRecord(
            frame_index=400,
            timestamp=400 / 30.0,
            pose_cw=SE3.identity(),
            pixels=np.zeros((0, 2)),
            point_ids=np.zeros(0, dtype=int),
            masks=[InstanceMask(1, "plate", mask)],
        )
        record.object_poses_co[1] = SE3.identity()
        vo.map.add_keyframe(record)
        now = 400 + 2 * vo.map.cull_after_frames - 1
        vo.map.touch(vo.map.ids, now)  # the points stay
        vo.map.cull(current_frame=now)
        assert vo.map.keyframe(0) is None
        predictions = engine.predict(vo)
        assert [p.source_frame_index for p in predictions] == [400]
        assert set(engine._contours) == set(engine._backprojections) == {(400, 1)}
