"""Tests for the synthetic world, renderer and dataset catalog."""

import numpy as np
import pytest

from repro.geometry import SE3, PinholeCamera
from repro.synthetic import (
    COMPLEXITY_LEVELS,
    DATASET_NAMES,
    LinearMotion,
    OrbitMotion,
    ProceduralTexture,
    Renderer,
    SceneObject,
    StaticMotion,
    SyntheticVideo,
    WalkTrajectory,
    WaypointMotion,
    World,
    default_camera,
    make_box_mesh,
    make_complexity_scene,
    make_cylinder_mesh,
    make_dataset,
    make_plane_mesh,
)


class TestMeshes:
    def test_box_mesh_structure(self):
        mesh = make_box_mesh((2.0, 4.0, 6.0))
        assert mesh.vertices.shape == (8, 3)
        assert mesh.num_faces == 12
        assert np.allclose(np.abs(mesh.vertices).max(axis=0), [1.0, 2.0, 3.0])
        # Box surface area = 2(ab+bc+ca) = 2(8+24+12) = 88.
        assert np.isclose(mesh.face_areas().sum(), 88.0)

    def test_plane_mesh_area(self):
        mesh = make_plane_mesh(10.0, 4.0)
        assert np.isclose(mesh.face_areas().sum(), 40.0)

    def test_cylinder_mesh_closed(self):
        mesh = make_cylinder_mesh(1.0, 2.0, segments=16)
        # 16 side quads (2 tris each) + 2*16 cap tris.
        assert mesh.num_faces == 16 * 4
        # Lateral area ~ 2*pi*r*h, caps ~ 2*pi*r^2 (polygonal, slightly less).
        total = mesh.face_areas().sum()
        assert 0.9 * (2 * np.pi * 2.0 + 2 * np.pi) < total <= 2 * np.pi * 2.0 + 2 * np.pi

    def test_surface_sampling_on_box(self):
        mesh = make_box_mesh((2.0, 2.0, 2.0))
        rng = np.random.default_rng(0)
        points = mesh.sample_surface_points(200, rng)
        assert points.shape == (200, 3)
        # Every sample lies on the box surface: max coordinate == 1.
        assert np.allclose(np.abs(points).max(axis=1), 1.0, atol=1e-9)

    def test_bad_uv_shape_raises(self):
        from repro.synthetic import TriangleMesh

        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), np.zeros((2, 3, 2)))


class TestTexture:
    def test_sample_in_range(self):
        texture = ProceduralTexture((100, 120, 140), seed=0)
        u = np.linspace(-3, 3, 50)
        v = np.linspace(-3, 3, 50)
        rgb = texture.sample(u, v)
        assert rgb.shape == (50, 3)
        assert rgb.min() >= 0.0 and rgb.max() <= 255.0

    def test_tileable(self):
        texture = ProceduralTexture((100, 100, 100), seed=1)
        a = texture.sample(np.array([0.25]), np.array([0.5]))
        b = texture.sample(np.array([1.25]), np.array([-0.5]))
        assert np.allclose(a, b)

    def test_has_contrast(self):
        texture = ProceduralTexture((128, 128, 128), seed=2)
        grid = np.linspace(0, 1, 96)
        uu, vv = np.meshgrid(grid, grid)
        rgb = texture.sample(uu.ravel(), vv.ravel())
        assert rgb.std() > 10.0  # dots must create texture for FAST


class TestMotionModels:
    def test_static(self):
        pose = SE3(np.eye(3), [1, 2, 3])
        motion = StaticMotion(pose)
        assert motion.pose_wo(0.0).allclose(motion.pose_wo(10.0))
        assert not motion.is_dynamic

    def test_linear_velocity(self):
        start = SE3(np.eye(3), [0, 0, 0])
        motion = LinearMotion(start, velocity=[1.0, 0.0, 0.5])
        assert np.allclose(motion.pose_wo(2.0).translation, [2.0, 0.0, 1.0])
        assert motion.is_dynamic

    def test_waypoint_interpolation(self):
        motion = WaypointMotion(
            np.array([0.0, 2.0]), np.array([[0, 0, 0], [4, 0, 0]])
        )
        assert np.allclose(motion.pose_wo(1.0).translation, [2, 0, 0])
        # Clamps beyond the last waypoint.
        assert np.allclose(motion.pose_wo(99.0).translation, [4, 0, 0])

    def test_orbit_radius_constant(self):
        motion = OrbitMotion(center=[1, 0, 1], radius=2.0, angular_speed=0.5)
        for t in (0.0, 1.0, 3.3):
            offset = motion.pose_wo(t).translation - np.array([1, 0, 1])
            assert np.isclose(np.linalg.norm(offset), 2.0)

    def test_waypoint_requires_two(self):
        with pytest.raises(ValueError):
            WaypointMotion(np.array([0.0]), np.array([[0, 0, 0]]))


class TestTrajectory:
    def test_walk_moves_camera(self):
        trajectory = WalkTrajectory(
            np.array([[0, -1.6, 0], [5, -1.6, 0]]), speed=1.0,
            look_target=np.array([2.5, -1.0, 6.0]),
        )
        pose0 = trajectory.pose_cw(0.0)
        pose3 = trajectory.pose_cw(3.0)
        assert pose0.translation_distance_to(pose3) > 2.0

    def test_motion_grades_scale_speed(self):
        waypoints = np.array([[0, -1.6, 0], [10, -1.6, 0]])
        walk = WalkTrajectory(waypoints, speed=1.0, motion_grade="walk",
                              look_target=np.array([5.0, -1.0, 8.0]))
        jog = WalkTrajectory(waypoints, speed=1.0, motion_grade="jog",
                             look_target=np.array([5.0, -1.0, 8.0]))
        t = 2.0
        assert jog.pose_cw(t).center[0] > walk.pose_cw(t).center[0]

    def test_unknown_grade_raises(self):
        with pytest.raises(ValueError):
            WalkTrajectory(np.zeros((2, 3)), motion_grade="sprint")

    def test_look_target_in_view(self):
        camera = default_camera()
        trajectory = WalkTrajectory(
            np.array([[-3, -1.6, -1.5], [3, -1.6, -1.5]]), speed=0.5,
            look_target=np.array([0.0, -1.0, 5.5]),
        )
        pixels, depths = camera.project_world(
            trajectory.pose_cw(1.0), np.array([[0.0, -1.0, 5.5]])
        )
        assert camera.in_view(pixels, depths).all()
        # Target projects near image center.
        assert abs(pixels[0, 0] - camera.cx) < 30
        assert abs(pixels[0, 1] - camera.cy) < 30


class TestRenderer:
    def make_simple(self):
        box = SceneObject(
            instance_id=1,
            class_label="crate",
            mesh=make_box_mesh((1.0, 1.0, 1.0)),
            texture=ProceduralTexture((180, 90, 80), seed=0),
            motion=StaticMotion(SE3(np.eye(3), [0.0, 0.0, 4.0])),
        )
        camera = PinholeCamera.with_fov(160, 120, 64.0)
        return Renderer(camera, [box]), camera

    def test_box_renders_centered(self):
        renderer, camera = self.make_simple()
        result = renderer.render(SE3.identity(), time=0.0)
        mask = result.instance_mask(1)
        assert mask.any()
        rows, cols = np.nonzero(mask)
        assert abs(rows.mean() - camera.cy) < 6
        assert abs(cols.mean() - camera.cx) < 6
        # Depth of the front face is 3.5 (box spans z in [3.5, 4.5]).
        assert np.isclose(result.depth[mask].min(), 3.5, atol=0.05)

    def test_expected_mask_size(self):
        renderer, camera = self.make_simple()
        result = renderer.render(SE3.identity(), time=0.0)
        mask = result.instance_mask(1)
        # A unit box at 3.5m: width ~ fx / 3.5 pixels.
        expected = camera.fx / 3.5
        width = mask.any(axis=0).sum()
        assert abs(width - expected) < 6

    def test_occlusion_order(self):
        near = SceneObject(
            1, "near", make_box_mesh((1.0, 1.0, 1.0)),
            ProceduralTexture((200, 60, 60), 1),
            StaticMotion(SE3(np.eye(3), [0.0, 0.0, 3.0])),
        )
        far = SceneObject(
            2, "far", make_box_mesh((3.5, 3.5, 1.0)),
            ProceduralTexture((60, 200, 60), 2),
            StaticMotion(SE3(np.eye(3), [0.0, 0.0, 6.0])),
        )
        camera = PinholeCamera.with_fov(160, 120, 64.0)
        result = Renderer(camera, [far, near]).render(SE3.identity(), 0.0)
        center_label = result.label_map[60, 80]
        assert center_label == 1  # near box wins the z-test
        assert 2 in result.visible_instance_ids  # far box visible around it

    def test_camera_behind_sees_nothing(self):
        renderer, camera = self.make_simple()
        pose = SE3.look_at(eye=[0, 0, 10.0], target=[0, 0, 20.0])
        result = renderer.render(pose, time=0.0)
        assert not result.instance_mask(1).any()

    def test_near_plane_clipping_keeps_partial_geometry(self):
        # Camera inside the scene, close to a large floor: triangles cross
        # the near plane and must be clipped, not dropped.
        floor = SceneObject(
            0, "background", make_plane_mesh(40.0, 40.0),
            ProceduralTexture((120, 120, 120), 3),
        )
        camera = PinholeCamera.with_fov(160, 120, 64.0)
        pose = SE3.look_at(eye=[0.0, -1.6, 0.0], target=[0.0, 0.0, 6.0])
        result = Renderer(camera, [floor]).render(pose, 0.0)
        assert np.isfinite(result.depth).mean() > 0.3


class TestWorldAndVideo:
    def test_duplicate_instance_ids_rejected(self):
        box = lambda i: SceneObject(
            i, "x", make_box_mesh((1, 1, 1)), ProceduralTexture((100, 100, 100), i)
        )
        with pytest.raises(ValueError):
            World([box(1), box(1)])

    def test_feature_sites_follow_moving_objects(self):
        start = SE3(np.eye(3), [0.0, 0.0, 5.0])
        mover = SceneObject(
            1, "car", make_box_mesh((1, 1, 1)),
            ProceduralTexture((100, 100, 100), 0),
            LinearMotion(start, velocity=[1.0, 0.0, 0.0]),
        )
        world = World([mover])
        positions0 = world.site_world_positions(0.0)
        positions2 = world.site_world_positions(2.0)
        moved = positions2 - positions0
        assert np.allclose(moved[:, 0], 2.0, atol=1e-9)

    def test_video_iteration_and_cache(self):
        video = make_dataset("davis_like", num_frames=3, resolution=(160, 120))
        frames = list(video)
        assert len(frames) == 3
        # Cached: same object identity on second access.
        again, _ = video.frame_at(1)
        assert again is frames[1][0]

    def test_video_cache_evicts_oldest_first(self):
        video = make_dataset("davis_like", num_frames=5, resolution=(96, 72))
        assert video._cache_capacity == 48
        video._cache_capacity = 2
        first, _ = video.frame_at(0)
        second, _ = video.frame_at(1)
        # A hit does not refresh a frame's place: eviction is FIFO.
        assert video.frame_at(0)[0] is first
        video.frame_at(2)
        assert list(video._cache) == [1, 2]
        assert video.frame_at(1)[0] is second
        assert video.frame_at(0)[0] is not first

    def test_video_index_bounds(self):
        video = make_dataset("davis_like", num_frames=3, resolution=(160, 120))
        with pytest.raises(IndexError):
            video.frame_at(3)

    def test_ground_truth_masks_match_label_map(self):
        video = make_dataset("xiph_like", num_frames=1, resolution=(160, 120))
        _, truth = video.frame_at(0)
        for mask in truth.masks:
            assert (truth.label_map[mask.mask] == mask.instance_id).all()


class TestDatasetCatalog:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_datasets_show_instances(self, name):
        video = make_dataset(name, num_frames=1, resolution=(160, 120))
        _, truth = video.frame_at(0)
        assert len(truth.masks) >= 1
        assert max(m.area for m in truth.masks) > 150

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            make_dataset("imagenet")

    @pytest.mark.parametrize("level", COMPLEXITY_LEVELS)
    def test_complexity_object_counts(self, level):
        video = make_complexity_scene(level, num_frames=1, resolution=(160, 120))
        _, truth = video.frame_at(0)
        if level == "easy":
            assert len(truth.masks) <= 3
        else:
            assert len(truth.masks) >= 5
        if level == "hard":
            assert len(video.world.dynamic_instance_ids) >= 1

    def test_unknown_complexity_raises(self):
        with pytest.raises(ValueError):
            make_complexity_scene("extreme")

    def test_dynamic_flag_adds_moving_object(self):
        static = make_dataset("xiph_like", num_frames=1, dynamic=False)
        dynamic = make_dataset("xiph_like", num_frames=1, dynamic=True)
        assert not static.world.dynamic_instance_ids
        assert dynamic.world.dynamic_instance_ids

    def test_rendered_frames_have_texture_for_fast(self):
        from repro.features import OrbFeatureExtractor

        video = make_dataset("davis_like", num_frames=1)
        frame, _ = video.frame_at(0)
        features = OrbFeatureExtractor(max_keypoints=200).extract(frame.gray)
        assert len(features) > 50
