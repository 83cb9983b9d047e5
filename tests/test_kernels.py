"""Property-style equivalence tests: every vectorized hot-path kernel
against its retained scalar ``*_reference`` implementation.

These are the correctness contract behind the ``micro`` bench suite
(:mod:`repro.obs.kernelbench`): the bench gates *speed*, these tests gate
*equivalence* — over random seeds, degenerate shapes, and the branch
points of each kernel (empty inputs, dense-vs-sparse paths, clamps).
Most pairs are bit-identical; the k-NN depth lookup is atol-bounded
because the argmin k-NN and the argsort reference may order exact
distance ties differently.  The client frame path (renderer, texture sampling,
oracle features, Hamming matching) is compared with ``array_equal``:
its outputs feed every simulated outcome, so they must not move a bit.
"""

import numpy as np
import pytest
from types import SimpleNamespace

from repro.chaos.scenarios import build_video, make_scenario
from repro.features.brief import _hamming_distance_reference, hamming_distance
from repro.features.fast import (
    _max_consecutive_true_reference,
    arc_run_at_least,
)
from repro.features.matcher import _match_descriptors_reference, match_descriptors
from repro.geometry.bundle_adjustment import (
    _dlt_rows,
    _dlt_rows_reference,
    _residuals_and_jacobian,
    _residuals_and_jacobian_reference,
    _score_hypotheses_reference,
)
from repro.geometry.camera import PinholeCamera
from repro.image.frame import _block_entropy_reference, block_entropy
from repro.geometry.se3 import SE3
from repro.geometry.triangulation import (
    _triangulate_dlt_reference,
    reprojection_errors,
    reprojection_errors_batch,
    reprojection_errors_each,
    triangulate_dlt,
    triangulate_dlt_each,
)
from repro.image.contours import _fill_contour_reference, fill_contour
from repro.model.acceleration import InferenceInstruction
from repro.model.maskrcnn import SimulatedSegmentationModel
from repro.model.rpn import _assemble_proposals_reference
from repro.synthetic import (
    DATASET_NAMES,
    LinearMotion,
    OrbitMotion,
    ProceduralTexture,
    Renderer,
    SceneObject,
    StaticMotion,
    TriangleMesh,
    World,
    default_camera,
    make_box_mesh,
    make_dataset,
    make_plane_mesh,
)
from repro.synthetic.objects import _dot_field, _dot_field_reference
from repro.synthetic.renderer import _NEAR_PLANE
from repro.transfer.mask_transfer import (
    _contour_depths_reference,
    contour_depths,
)
from repro.vo import VisualOdometry
from repro.vo.frontend import OracleFrontend

CAMERA = PinholeCamera(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
CAMERA_MATRIX = np.array(
    [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
)


def random_points(rng, n, z_low=2.0, z_high=8.0):
    return np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(z_low, z_high, n),
        ]
    )


class TestArcRun:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
    def test_matches_reference_both_branches(self, seed, density):
        # density 0.9 forces the dense BLAS-pack branch, the sparse
        # densities the per-plane gather branch.
        rng = np.random.default_rng(seed)
        flags = rng.random((16, 500)) < density
        for arc in (1, 5, 9, 12, 16):
            vec = arc_run_at_least(flags, arc)
            ref = _max_consecutive_true_reference(flags) >= arc
            assert np.array_equal(vec, ref), (seed, density, arc)

    def test_2d_inner_shape_preserved(self):
        rng = np.random.default_rng(3)
        flags = rng.random((16, 12, 17)) < 0.4
        vec = arc_run_at_least(flags, 9)
        ref = _max_consecutive_true_reference(flags) >= 9
        assert vec.shape == (12, 17)
        assert np.array_equal(vec, ref)

    def test_empty_input(self):
        flags = np.zeros((16, 0), dtype=bool)
        assert arc_run_at_least(flags, 9).shape == (0,)

    def test_wraparound_run(self):
        # A run crossing the circular boundary: flags set at indices
        # 12..15 and 0..4 form a contiguous circular run of 9.
        flags = np.zeros((16, 1), dtype=bool)
        flags[list(range(12, 16)) + list(range(0, 5)), 0] = True
        assert arc_run_at_least(flags, 9)[0]
        assert not arc_run_at_least(flags, 10)[0]

    def test_all_true_is_run_16(self):
        flags = np.ones((16, 3), dtype=bool)
        assert arc_run_at_least(flags, 16).all()

    def test_rejects_wrong_leading_axis(self):
        with pytest.raises(ValueError):
            arc_run_at_least(np.zeros((8, 4), dtype=bool), 9)


class TestRPNAssemble:
    @pytest.mark.parametrize("seed", range(5))
    def test_gt_index_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        boxes = rng.uniform(0.0, 320.0, (n, 4))
        scores = rng.uniform(0.0, 1.0, n)
        best_index = rng.integers(0, 6, n)
        best_iou = rng.uniform(0.0, 1.0, n)
        gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        proposals = _assemble_proposals_reference(
            boxes, scores, best_index, best_iou
        )
        assert np.array_equal(
            gt_index, np.array([p.best_gt_index for p in proposals])
        )
        assert np.allclose(scores, [p.objectness for p in proposals])

    def test_empty(self):
        empty = np.zeros(0)
        assert (
            _assemble_proposals_reference(
                np.zeros((0, 4)), empty, empty.astype(int), empty
            )
            == []
        )

    def test_threshold_idempotent(self):
        # Feeding an already-thresholded index column back through the
        # assembly leaves it unchanged: the -1 sentinel never flips back.
        rng = np.random.default_rng(11)
        n = 64
        best_index = rng.integers(0, 4, n)
        best_iou = rng.uniform(0.0, 1.0, n)
        once = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        twice = np.where(best_iou >= 0.3, once, -1).astype(np.int64)
        assert np.array_equal(once, twice)


class TestClassConfidences:
    @pytest.mark.parametrize("seed", range(4))
    def test_stream_identical_to_reference(self, seed):
        # Same-seeded Generators: one size-n normal draw consumes the
        # stream exactly like n scalar draws, so the outputs are
        # bit-identical, not merely close.
        rng = np.random.default_rng(seed)
        n = 100
        classes = ["person", "car", "chair", "dog"]
        gt_instances = [SimpleNamespace(class_label=c) for c in classes]
        instructions = [
            InferenceInstruction(
                box=np.array([0.0, 0.0, 32.0, 32.0]), class_label=c
            )
            for c in classes[:2]
        ]
        boxes = rng.uniform(0.0, 320.0, (n, 4))
        scores = rng.uniform(0.0, 1.0, n)
        best_index = rng.integers(0, len(classes), n)
        best_iou = rng.uniform(0.0, 1.0, n)
        gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        proposals = _assemble_proposals_reference(
            boxes, scores, best_index, best_iou
        )
        vec = SimulatedSegmentationModel._class_confidences(
            SimpleNamespace(_rng=np.random.default_rng(seed + 99)),
            best_iou,
            gt_index,
            instructions,
            gt_instances,
        )
        ref = SimulatedSegmentationModel._class_confidences_reference(
            SimpleNamespace(_rng=np.random.default_rng(seed + 99)),
            proposals,
            instructions,
            gt_instances,
        )
        assert np.array_equal(vec, ref)

    def test_no_gt_instances(self):
        rng = np.random.default_rng(0)
        best_iou = rng.uniform(0.0, 1.0, 16)
        gt_index = np.full(16, -1, dtype=np.int64)
        vec = SimulatedSegmentationModel._class_confidences(
            SimpleNamespace(_rng=np.random.default_rng(5)),
            best_iou,
            gt_index,
            [],
            [],
        )
        ref = SimulatedSegmentationModel._class_confidences_reference(
            SimpleNamespace(_rng=np.random.default_rng(5)),
            _assemble_proposals_reference(
                rng.uniform(0.0, 320.0, (16, 4)),
                best_iou,
                np.zeros(16, dtype=int),
                np.zeros(16),  # iou 0 => all background
            ),
            [],
            [],
        )
        assert vec.shape == ref.shape == (16,)
        assert ((0.0 <= vec) & (vec <= 1.0)).all()


class TestBundleAdjustmentKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        pose = SE3.exp(rng.normal(scale=0.05, size=6))
        points = random_points(rng, 120)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (120, 2))
        res_v, jac_v, valid_v = _residuals_and_jacobian(
            CAMERA, pose, points, pixels
        )
        res_r, jac_r, valid_r = _residuals_and_jacobian_reference(
            CAMERA, pose, points, pixels
        )
        assert np.array_equal(valid_v, valid_r)
        assert np.array_equal(res_v, res_r)
        assert np.array_equal(jac_v, jac_r)

    def test_jacobian_behind_camera_points_flagged(self):
        # Points at or behind the camera plane exercise the safe-z branch
        # in both implementations identically.
        rng = np.random.default_rng(7)
        points = random_points(rng, 40, z_low=-1.0, z_high=1.0)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (40, 2))
        pose = SE3.identity()
        res_v, jac_v, valid_v = _residuals_and_jacobian(
            CAMERA, pose, points, pixels
        )
        res_r, jac_r, valid_r = _residuals_and_jacobian_reference(
            CAMERA, pose, points, pixels
        )
        assert not valid_v.all()  # some depths really were invalid
        assert np.array_equal(valid_v, valid_r)
        assert np.array_equal(res_v, res_r)
        assert np.array_equal(jac_v, jac_r)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_poses", [1, 3, 17])
    def test_ransac_scores_match_reference(self, seed, num_poses):
        rng = np.random.default_rng(seed)
        poses = [
            SE3.exp(rng.normal(scale=0.1, size=6)) for _ in range(num_poses)
        ]
        points = random_points(rng, 60)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (60, 2))
        vec = reprojection_errors_batch(CAMERA_MATRIX, poses, points, pixels)
        ref = _score_hypotheses_reference(CAMERA_MATRIX, poses, points, pixels)
        assert vec.shape == (num_poses, 60)
        assert np.allclose(vec, ref, rtol=0.0, atol=1e-9)

    def test_ransac_empty_pose_list(self):
        points = np.zeros((5, 3))
        pixels = np.zeros((5, 2))
        vec = reprojection_errors_batch(CAMERA_MATRIX, [], points, pixels)
        ref = _score_hypotheses_reference(CAMERA_MATRIX, [], points, pixels)
        assert vec.shape == ref.shape == (0, 5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 6, 50])
    def test_dlt_rows_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        normalized = rng.normal(size=(n, 2))
        homogeneous = np.column_stack([rng.normal(size=(n, 3)), np.ones(n)])
        vec = _dlt_rows(normalized, homogeneous)
        ref = _dlt_rows_reference(normalized, homogeneous)
        assert vec.shape == (2 * n, 12)
        assert np.array_equal(vec, ref)


class TestContourDepths:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (50, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (80, 2))
        depths = rng.uniform(2.0, 8.0, 80)
        vec = contour_depths(contour_uv, feature_pixels, depths, k)
        ref = _contour_depths_reference(contour_uv, feature_pixels, depths, k)
        # Not bit-identical by design: the argsort reference may break
        # exact distance ties differently (measure zero here).
        assert np.allclose(vec, ref, rtol=0.0, atol=1e-9)

    def test_k_clamped_to_feature_count(self):
        rng = np.random.default_rng(2)
        contour_uv = rng.uniform((0.0, 0.0), (64.0, 64.0), (10, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (64.0, 64.0), (3, 2))
        depths = np.array([1.0, 2.0, 3.0])
        vec = contour_depths(contour_uv, feature_pixels, depths, 50)
        ref = _contour_depths_reference(contour_uv, feature_pixels, depths, 50)
        # k > population: every estimate is the global mean.
        assert np.allclose(vec, depths.mean())
        assert np.allclose(vec, ref)

    def test_single_neighbor_branch(self):
        # k=1: each per-pixel mean is the one nearest feature's depth.
        contour_uv = np.array([[0.0, 0.0], [10.0, 10.0]])
        feature_pixels = np.array([[0.1, 0.0], [10.0, 10.1]])
        depths = np.array([4.0, 6.0])
        vec = contour_depths(contour_uv, feature_pixels, depths, 1)
        assert np.allclose(vec, [4.0, 6.0])


def assert_same_render(a, b):
    assert np.array_equal(a.frame.image, b.frame.image)
    assert np.array_equal(a.label_map, b.label_map)
    assert np.array_equal(a.depth, b.depth)


def render_both(renderer, pose_cw, time, index=0):
    return (
        renderer.render(pose_cw, time, frame_index=index),
        renderer.render_reference(pose_cw, time, frame_index=index),
    )


RESOLUTIONS = [(320, 240), (160, 120), (128, 96)]


class TestRenderer:
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_matches_reference(self, dataset, resolution):
        video = make_dataset(dataset, num_frames=300, resolution=resolution, seed=3)
        renderer = Renderer(video.camera, video.world.objects)
        for index in (0, 150, 299):
            time = index / video.fps
            fast, reference = render_both(
                renderer, video.trajectory.pose_cw(time), time, index
            )
            assert_same_render(fast, reference)

    def test_near_plane_clipped_faces(self):
        # A box straddling the near plane and a floor running under the
        # camera: both take the Sutherland-Hodgman clip + fan path.
        camera = default_camera((160, 120))
        box = SceneObject(
            1, "box", make_box_mesh((1.0, 1.0, 1.0)),
            ProceduralTexture((150, 60, 60), seed=1),
        )
        floor = SceneObject(
            0, "floor", make_plane_mesh(20.0, 20.0),
            ProceduralTexture((90, 90, 90), seed=2),
        )
        renderer = Renderer(camera, [floor, box])
        for z in (0.3, 0.45, 0.52):
            pose_cw = SE3(np.eye(3), [0.1, -0.6, z])
            for scene_object in (box, floor):
                corners = pose_cw.transform(scene_object.mesh.vertices)
                behind = corners[scene_object.mesh.faces][:, :, 2] < _NEAR_PLANE
                assert (behind.any(axis=1) & ~behind.all(axis=1)).any()
            fast, reference = render_both(renderer, pose_cw, 0.0)
            assert_same_render(fast, reference)
            assert (fast.label_map == 1).any()

    def test_lighting_flip_wrapper_texture(self):
        spec = make_scenario("lighting-flip")
        video = build_video(spec, 60, resolution=(160, 120), seed=2)
        renderer = Renderer(video.camera, video.world.objects)
        shift_index = int(spec.lighting_shift_at_s * video.fps)
        for index in (shift_index - 1, shift_index, shift_index + 5):
            time = index / video.fps
            fast, reference = render_both(
                renderer, video.trajectory.pose_cw(time), time, index
            )
            assert_same_render(fast, reference)

    def test_visible_instance_ids_sorted_nonzero(self):
        video = make_dataset("kitti_like", num_frames=30, resolution=(160, 120))
        for index in (0, 29):
            result = video.renderer.render(
                video.trajectory.pose_cw(index / video.fps), index / video.fps
            )
            expected = [int(i) for i in np.unique(result.label_map) if i != 0]
            assert result.visible_instance_ids == expected


def forced_strips(renderer, rows):
    """Send every triangle through the strip raster, in bands of ``rows``."""
    renderer.strip_min_box_px = 0
    renderer.strip_rows = rows
    return renderer


STRIP_ROWS = (1, 7, 32)


class TestStripRaster:
    """The strip path against the per-face, full-box reference: the
    trimmed strips must hold every pixel the whole box would draw."""

    @pytest.mark.parametrize("rows", STRIP_ROWS)
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_matches_reference(self, dataset, resolution, rows):
        video = make_dataset(dataset, num_frames=300, resolution=resolution, seed=3)
        renderer = forced_strips(Renderer(video.camera, video.world.objects), rows)
        for index in (0, 299):
            time = index / video.fps
            fast, reference = render_both(
                renderer, video.trajectory.pose_cw(time), time, index
            )
            assert_same_render(fast, reference)

    @pytest.mark.parametrize("rows", STRIP_ROWS)
    def test_near_plane_clipped_fans(self, rows):
        camera = default_camera((160, 120))
        box = SceneObject(
            1, "box", make_box_mesh((1.0, 1.0, 1.0)),
            ProceduralTexture((150, 60, 60), seed=1),
        )
        floor = SceneObject(
            0, "floor", make_plane_mesh(20.0, 20.0),
            ProceduralTexture((90, 90, 90), seed=2),
        )
        renderer = forced_strips(Renderer(camera, [floor, box]), rows)
        for z in (0.3, 0.45, 0.52):
            fast, reference = render_both(renderer, SE3(np.eye(3), [0.1, -0.6, z]), 0.0)
            assert_same_render(fast, reference)
            assert (fast.label_map == 1).any()

    @pytest.mark.parametrize("rows", STRIP_ROWS)
    def test_lighting_flip_wrapper_texture(self, rows):
        spec = make_scenario("lighting-flip")
        video = build_video(spec, 60, resolution=(160, 120), seed=2)
        renderer = forced_strips(Renderer(video.camera, video.world.objects), rows)
        shift_index = int(spec.lighting_shift_at_s * video.fps)
        for index in (shift_index - 1, shift_index + 5):
            time = index / video.fps
            fast, reference = render_both(
                renderer, video.trajectory.pose_cw(time), time, index
            )
            assert_same_render(fast, reference)

    @pytest.mark.parametrize("rows", STRIP_ROWS)
    def test_vertices_on_strip_boundaries(self, rows):
        # A one-face mesh whose projected corners land exactly on pixel
        # edges at multiples of ``rows`` (and on a horizontal top edge):
        # the band limits meet the triangle only at its vertices.
        # A unit camera at depth 1 projects (x, y, 1) to pixel (x, y) exactly.
        camera = PinholeCamera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=160, height=120)
        bottom = float(rows * (98 // rows))
        vertices = np.array([[5.0, 0.0, 1.0], [150.0, 0.0, 1.0], [70.0, bottom, 1.0]])
        mesh = TriangleMesh(
            vertices=vertices,
            faces=np.array([[0, 1, 2]]),
            face_uvs=np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]]),
        )
        tri = SceneObject(1, "tri", mesh, ProceduralTexture((200, 40, 40), seed=4))
        renderer = forced_strips(Renderer(camera, [tri]), rows)
        pixels, _ = camera.project(vertices)
        assert np.array_equal(pixels, vertices[:, :2])
        fast, reference = render_both(renderer, SE3(np.eye(3), np.zeros(3)), 0.0)
        assert_same_render(fast, reference)
        assert (fast.label_map == 1).sum() > 1000

    def test_strips_trim_and_partition_the_box(self):
        renderer = Renderer(default_camera((320, 240)), [])
        renderer.strip_rows = 32
        box = [0, 320, 25, 240]
        corners = [[444.3, 44.6], [-200.9, 25.6], [-249.0, 409.6]]
        strips = renderer._strips(box, corners)
        # Bands tile the box's rows in order, each within the box.
        assert [s[2] for s in strips] == list(range(25, 240, 32))
        assert [s[3] for s in strips] == [*range(57, 240, 32), 240]
        assert all(0 <= s[0] < s[1] <= 320 for s in strips)
        # The triangle narrows towards the bottom, so the strips do too.
        assert strips[-1][1] < 320
        assert sum((s[1] - s[0]) * (s[3] - s[2]) for s in strips) < 0.85 * 320 * 215

    def test_strips_drop_bands_the_triangle_misses(self):
        # Inside the box's rows the triangle lies right of the screen.
        renderer = Renderer(default_camera((320, 240)), [])
        corners = [[-107.8, -7577.7], [416.1, 107.3], [153792.1, -7577.7]]
        assert renderer._strips([0, 320, 0, 109], corners) == []

    def test_large_boxes_take_the_strip_path_by_default(self, monkeypatch):
        video = make_dataset("xiph_like", num_frames=1, resolution=(320, 240))
        renderer = Renderer(video.camera, video.world.objects)
        calls = []
        original = Renderer._strips
        monkeypatch.setattr(
            Renderer,
            "_strips",
            lambda self, box, corners: calls.append(box) or original(self, box, corners),
        )
        renderer.render(video.trajectory.pose_cw(0.0), 0.0)
        assert calls
        assert all(
            (b[1] - b[0]) * (b[3] - b[2]) >= Renderer.strip_min_box_px for b in calls
        )


def count_visibility_passes(monkeypatch) -> list:
    """Record every visibility pass a renderer computes (memo misses)."""
    passes = []
    compute = Renderer._visibility_pass

    def spy(self, poses_co):
        passes.append(self)
        return compute(self, poses_co)

    monkeypatch.setattr(Renderer, "_visibility_pass", spy)
    return passes


LIGHTING_FLIP = make_scenario("lighting-flip")
MEMO_SCENES = (*DATASET_NAMES, "lighting-flip")


def memo_scene(scene, seed, resolution=(160, 120)):
    if scene == "lighting-flip":
        return build_video(LIGHTING_FLIP, 60, resolution=resolution, seed=seed)
    return make_dataset(scene, num_frames=60, resolution=resolution, seed=seed)


def memo_pair(scene):
    """Two videos of one scene whose seeds differ, sharing one memo."""
    first, second = memo_scene(scene, 1), memo_scene(scene, 2)
    second.renderer.memo = first.renderer.memo
    return first, second


def render_at(video, index):
    time = index / video.fps
    return video.renderer.render(video.trajectory.pose_cw(time), time, frame_index=index)


def reference_at(video, index):
    time = index / video.fps
    return video.renderer.render_reference(
        video.trajectory.pose_cw(time), time, frame_index=index
    )


class TestVisibilityMemo:
    """Renders that share a memo share the visibility pass of a view
    whose key they agree on, and stay exact either way."""

    @pytest.mark.parametrize("scene", MEMO_SCENES)
    def test_same_view_shares_the_pass(self, monkeypatch, scene):
        passes = count_visibility_passes(monkeypatch)
        first, second = memo_pair(scene)
        flip = int(LIGHTING_FLIP.lighting_shift_at_s * first.fps)
        indices = (flip - 1, flip + 1) if scene == "lighting-flip" else (0, 45)
        for count, index in enumerate(indices, start=1):
            a, b = render_at(first, index), render_at(second, index)
            assert len(passes) == count  # the second render was a hit
            assert b.depth is a.depth and b.label_map is a.label_map
            assert b.visible_masks() is a.visible_masks()
            # Each frame shades with its own seed's textures.
            assert not np.array_equal(a.frame.image, b.frame.image)
            assert_same_render(a, reference_at(first, index))
            assert_same_render(b, reference_at(second, index))

    def test_different_pose_mesh_or_resolution_misses(self, monkeypatch):
        passes = count_visibility_passes(monkeypatch)
        first, second = memo_pair("oilfield")
        render_at(first, 10)
        # Another frame: every object -> camera pose differs.
        moved = render_at(second, 11)
        assert len(passes) == 2
        assert_same_render(moved, reference_at(second, 11))
        # The same view at another resolution.
        small = memo_scene("oilfield", 1, (128, 96))
        small.renderer.memo = first.renderer.memo
        result = render_at(small, 11)
        assert len(passes) == 3
        assert_same_render(result, reference_at(small, 11))
        # The same camera and poses over a mesh moved by 1e-9.
        changed = memo_scene("oilfield", 1)
        mesh = changed.world.objects[-1].mesh
        mesh.vertices = mesh.vertices + np.array([0.0, 0.0, 1e-9])
        changed.renderer = Renderer(changed.camera, changed.world.objects)
        changed.renderer.memo = first.renderer.memo
        render_at(first, 12)
        result = render_at(changed, 12)
        assert len(passes) == 5
        assert_same_render(result, reference_at(changed, 12))

    def test_shared_rasters_are_read_only(self):
        first, second = memo_pair("xiph_like")
        _, truth = first.frame_at(20)
        _, other = second.frame_at(20)
        assert other.masks[0].mask is truth.masks[0].mask
        for array in (truth.depth, truth.label_map, truth.masks[0].mask):
            with pytest.raises(ValueError):
                array[0, 0] = array[0, 0]


def count_shading(monkeypatch) -> list:
    """Record every shading pass (one entry per shaded frame)."""
    shaded = []
    shade = Renderer._shade

    def spy(self, visibility):
        shaded.append(visibility.time)
        return shade(self, visibility)

    monkeypatch.setattr(Renderer, "_shade", spy)
    return shaded


class TestShadeOnDemand:
    """The visibility pass renders every frame; the shading pass runs
    only when something reads the frame's pixels, and gives the image
    the eager reference renders, whenever it runs."""

    @pytest.mark.parametrize("rows", (None, *STRIP_ROWS))
    def test_lighting_flip_shaded_after_a_later_frame(self, rows):
        # Shading frame i after a frame past the flip was rendered and
        # shaded: the texture must be set back to frame i's time.
        spec = make_scenario("lighting-flip")
        video = build_video(spec, 60, resolution=(160, 120), seed=2)
        renderer = Renderer(video.camera, video.world.objects)
        if rows is not None:
            forced_strips(renderer, rows)
        shift_index = int(spec.lighting_shift_at_s * video.fps)

        def both(index):
            time = index / video.fps
            return render_both(renderer, video.trajectory.pose_cw(time), time, index)

        early = [both(index) for index in (shift_index - 3, shift_index - 1)]
        later, later_reference = both(shift_index + 5)
        assert_same_render(later, later_reference)
        assert video.world.objects[0].texture._time > spec.lighting_shift_at_s
        for fast, reference in early:
            assert_same_render(fast, reference)
            assert fast.frame.image.mean() > later.frame.image.mean()

    def test_shape_reads_do_not_shade(self, monkeypatch):
        shaded = count_shading(monkeypatch)
        video = make_dataset("xiph_like", num_frames=2, resolution=(160, 120))
        frame, _ = video.frame_at(1)
        assert (frame.shape, frame.height, frame.width) == ((120, 160), 120, 160)
        assert shaded == []

    def test_gray_twice_shades_once(self, monkeypatch):
        shaded = count_shading(monkeypatch)
        video = make_dataset("xiph_like", num_frames=2, resolution=(160, 120))
        frame, _ = video.frame_at(1)
        gray = frame.gray
        assert frame.gray is gray
        assert frame.image.shape == (120, 160, 3)
        assert shaded == [1 / video.fps]
        reference = video.renderer.render_reference(
            video.trajectory.pose_cw(1 / video.fps), 1 / video.fps, frame_index=1
        )
        assert np.array_equal(frame.image, reference.frame.image)

    @pytest.mark.parametrize(
        "system,shades",
        [
            # MAMT reads no pixels: only the frames CFRS encodes are shaded.
            ("edgeis", "offloads"),
            ("baseline+mamt", "offloads"),
            # Best-effort reads pixels only to encode what it sends.
            ("edge_best_effort", "offloads"),
            # The tracker baselines read every frame they process.
            ("eaar", "processed"),
            ("baseline", "processed"),
        ],
    )
    def test_runs_shade_only_the_frames_they_read(self, monkeypatch, system, shades):
        from repro.eval.experiments import ExperimentSpec, run_experiment

        shaded = count_shading(monkeypatch)
        renders = []
        render = Renderer.render
        monkeypatch.setattr(
            Renderer,
            "render",
            lambda self, *args, **kwargs: renders.append(1) or render(self, *args, **kwargs),
        )
        outcome = run_experiment(
            ExperimentSpec(system=system, num_frames=60, resolution=(128, 96), seed=1)
        )
        result = outcome.result
        expected = {
            "offloads": result.offload_count,
            "processed": sum(frame.client_processed for frame in result.frames),
        }[shades]
        assert 0 < len(shaded) == expected
        assert len(shaded) == len(set(shaded))  # no frame is shaded twice
        assert len(shaded) < len(renders) == len(result.frames)


class TestTextureSample:
    @pytest.mark.parametrize("tile_size", [5, 17, 96])
    def test_matches_reference(self, tile_size):
        texture = ProceduralTexture((250, 20, 128), seed=tile_size, tile_size=tile_size)
        rng = np.random.default_rng(tile_size)
        u = rng.uniform(-40.0, 40.0, 5000)
        v = rng.uniform(-40.0, 40.0, 5000)
        for shape in ((5000,), (50, 100)):
            fast = texture.sample(u.reshape(shape), v.reshape(shape))
            reference = texture._sample_reference(u.reshape(shape), v.reshape(shape))
            assert fast.dtype == reference.dtype == np.float32
            assert np.array_equal(fast, reference)

    def test_empty(self):
        texture = ProceduralTexture((100, 100, 100), seed=0)
        empty = np.zeros(0)
        assert texture.sample(empty, empty).shape == (0, 3)

    @pytest.mark.parametrize("tile_size", [3, 5, 8, 9, 64, 96])
    def test_dot_field_matches_reference(self, tile_size):
        # Tiles narrower than a disc (2r + 1 > tile) wrap a stamp onto
        # itself; the window stamp must still hit the same cells.
        for seed in range(20):
            fast_rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            fast = _dot_field(tile_size, 70, 90.0, fast_rng)
            reference = _dot_field_reference(tile_size, 70, 90.0, reference_rng)
            assert fast.dtype == reference.dtype == np.float32
            assert np.array_equal(fast, reference)
            assert fast_rng.integers(0, 2**62) == reference_rng.integers(0, 2**62)


def random_descriptors(rng, n, base=None, flips=0):
    """``n`` descriptors, optionally ``base`` rows with ``flips`` random
    bit flips each (near-duplicates, so matching has real work to do)."""
    if base is None:
        return rng.integers(0, 256, size=(n, 32), dtype=np.uint8)
    out = base[rng.integers(0, len(base), n)].copy()
    for row in out:
        for bit in rng.integers(0, 256, flips):
            row[bit // 8] ^= np.uint8(1 << (bit % 8))
    return out


class TestBlockEntropy:
    """One bin pass and one ``bincount`` against one ``np.histogram`` per
    block: bit-identical, including values the histogram drops."""

    EDGES = np.linspace(0.0, 255.0, 33, dtype=np.float32)

    @staticmethod
    def assert_same(gray, block):
        fast, reference = block_entropy(gray, block), _block_entropy_reference(gray, block)
        assert fast.dtype == reference.dtype == np.float32
        assert fast.shape == reference.shape
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_random_shapes(self, seed):
        # Partial blocks on both axes, values inside and outside the range.
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 80, size=2))
        low, high = (0.0, 255.0) if seed % 2 else (-30.0, 290.0)
        gray = rng.uniform(low, high, shape).astype(np.float32)
        self.assert_same(gray, int(rng.choice([3, 8, 16, 32])))

    @pytest.mark.parametrize("seed", range(10))
    def test_values_on_and_beside_bin_edges(self, seed):
        rng = np.random.default_rng(seed)
        edges = rng.choice(self.EDGES, (48, 40))
        beside = np.nextafter(edges, np.where(rng.random(edges.shape) < 0.5, -1e9, 1e9).astype(np.float32))
        gray = np.where(rng.random(edges.shape) < 0.5, edges, beside).astype(np.float32)
        self.assert_same(gray, 16)

    def test_nan_inf_and_integer_images(self):
        rng = np.random.default_rng(3)
        gray = rng.integers(0, 256, (40, 36)).astype(np.float32)
        gray[0, :5] = np.nan
        gray[5, :3] = np.inf
        gray[7, 2] = -np.inf
        gray[16:32, 16:32] = np.nan  # a block the histogram drops entirely
        self.assert_same(gray, 16)
        self.assert_same(rng.integers(0, 256, (33, 50)), 16)

    def test_flat_and_empty(self):
        self.assert_same(np.full((20, 30), 100.0, dtype=np.float32), 16)
        self.assert_same(np.zeros((0, 30), dtype=np.float32), 16)

    def test_rendered_frame(self):
        frame, _ = make_dataset("oilfield", num_frames=1, resolution=(160, 120)).frame_at(0)
        self.assert_same(frame.gray, 16)


class TestHammingDistance:
    @pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0), (1, 1), (1, 9), (9, 1), (40, 53)])
    def test_matches_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = random_descriptors(rng, shape[0])
        b = random_descriptors(rng, shape[1])
        fast = hamming_distance(a, b)
        reference = _hamming_distance_reference(a, b)
        assert fast.dtype == reference.dtype == np.int32
        assert fast.shape == reference.shape == shape
        assert np.array_equal(fast, reference)

    def test_single_descriptor_rows(self):
        rng = np.random.default_rng(4)
        a, b = random_descriptors(rng, 2)
        assert np.array_equal(hamming_distance(a, b), _hamming_distance_reference(a, b))

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(5)
        wide = rng.integers(0, 256, size=(30, 64), dtype=np.uint8)
        a, b = wide[::2, ::2], wide[1::3, 1::2]
        assert not a.flags.c_contiguous and not b.flags.c_contiguous
        assert np.array_equal(hamming_distance(a, b), _hamming_distance_reference(a, b))
        assert np.array_equal(
            hamming_distance(np.asfortranarray(wide[:, :32]), wide[:5, 32:]),
            _hamming_distance_reference(wide[:, :32], wide[:5, 32:]),
        )

    def test_lut_fallback_without_bitwise_count(self, monkeypatch):
        rng = np.random.default_rng(6)
        a, b = random_descriptors(rng, 12), random_descriptors(rng, 17)
        expected = _hamming_distance_reference(a, b)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert not hasattr(np, "bitwise_count")
        assert np.array_equal(hamming_distance(a, b), expected)


class TestMatchDescriptors:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cross_check", [True, False])
    @pytest.mark.parametrize("max_distance", [0, 24, 64, 256])
    def test_matches_reference(self, seed, cross_check, max_distance):
        rng = np.random.default_rng(seed)
        base = random_descriptors(rng, 60)
        query = random_descriptors(rng, 80, base=base, flips=int(rng.integers(0, 40)))
        train = random_descriptors(rng, 70, base=base, flips=6)
        for ratio in (0.6, 0.8, 1.0):
            fast = match_descriptors(query, train, max_distance, ratio, cross_check)
            reference = _match_descriptors_reference(
                query, train, max_distance, ratio, cross_check
            )
            assert fast == reference
            assert all(type(m.distance) is float for m in fast)
            assert all(type(m.query_index) is int for m in fast)

    def test_single_train_column_skips_ratio_test(self):
        rng = np.random.default_rng(9)
        query = random_descriptors(rng, 10)
        train = query[3:4].copy()
        fast = match_descriptors(query, train)
        assert fast == _match_descriptors_reference(query, train)
        assert [(m.query_index, m.train_index, m.distance) for m in fast] == [(3, 0, 0.0)]

    def test_empty_sides(self):
        rng = np.random.default_rng(1)
        some = random_descriptors(rng, 4)
        none = np.zeros((0, 32), dtype=np.uint8)
        assert match_descriptors(some, none) == _match_descriptors_reference(some, none) == []
        assert match_descriptors(none, some) == []


class TestOracleObserve:
    @pytest.mark.parametrize("dataset", ["davis_like", "kitti_like", "oilfield"])
    def test_stream_identical_to_reference(self, dataset):
        video = make_dataset(dataset, num_frames=240, resolution=(160, 120), seed=1)
        fast = OracleFrontend(video.world, video.camera, seed=11)
        reference = OracleFrontend(video.world, video.camera, seed=11)
        for index in (0, 1, 60, 120, 239):
            frame, truth = video.frame_at(index)
            a = fast.observe(frame, truth)
            b = reference._observe_reference(frame, truth)
            assert len(a) > 0
            assert np.array_equal(a.pixels, b.pixels)
            assert a.descriptors.dtype == b.descriptors.dtype == np.uint8
            assert np.array_equal(a.descriptors, b.descriptors)
            # Both consumed exactly the same stretch of the generator.
            assert fast._rng.integers(0, 2**62) == reference._rng.integers(0, 2**62)

    def test_capped_and_flip_free_configurations(self):
        video = make_dataset("xiph_like", num_frames=30, resolution=(160, 120), seed=2)
        frame, truth = video.frame_at(10)
        for kwargs in ({"max_features": 25}, {"descriptor_flip_bits": 0}, {"dropout": 1.0}):
            fast = OracleFrontend(video.world, video.camera, seed=3, **kwargs)
            reference = OracleFrontend(video.world, video.camera, seed=3, **kwargs)
            a = fast.observe(frame, truth)
            b = reference._observe_reference(frame, truth)
            assert np.array_equal(a.pixels, b.pixels)
            assert a.descriptors.shape == b.descriptors.shape
            assert np.array_equal(a.descriptors, b.descriptors)
            assert fast._rng.uniform() == reference._rng.uniform()

    @pytest.mark.parametrize("dataset", ["davis_like", "kitti_like"])
    def test_site_positions_match_reference(self, dataset):
        world = make_dataset(dataset, num_frames=10, resolution=(160, 120)).world
        for time in (0.0, 1.3, 7.9):
            assert np.array_equal(
                world.site_world_positions(time),
                world._site_world_positions_reference(time),
            )

    def test_site_positions_match_reference_under_rotation(self):
        # General rotations: an (N, 3) @ (3, 3) product would differ from
        # the per-point transform in the last bit here.
        rng = np.random.default_rng(12)
        objects = [
            SceneObject(
                k + 1, "box", make_box_mesh((1.0, 2.0, 0.5)),
                ProceduralTexture((90, 90, 90), seed=k),
                motion,
            )
            for k, motion in enumerate(
                [
                    StaticMotion(SE3.exp(rng.normal(size=6))),
                    LinearMotion(
                        SE3.exp(rng.normal(size=6)),
                        velocity=[0.3, 0.0, -0.2],
                        angular_velocity=[0.2, -0.5, 0.1],
                    ),
                    OrbitMotion(np.array([0.0, -1.0, 6.0]), 2.0, 0.7),
                ]
            )
        ]
        world = World(objects, seed=4)
        for time in (0.0, 0.37, 2.5):
            assert np.array_equal(
                world.site_world_positions(time),
                world._site_world_positions_reference(time),
            )


def bits(array):
    """The raw float64 bits, so that array_equal also tells -0.0 from 0.0."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestClosedFormJacobian:
    @pytest.mark.parametrize("seed", range(5))
    def test_signed_zeros_match_reference(self, seed):
        # Zero coordinates make the einsum's dropped terms and the
        # closed form's products signed zeros: the bits must agree.
        rng = np.random.default_rng(seed)
        points = random_points(rng, 60, z_low=-0.5, z_high=4.0)
        points[rng.random(points.shape) < 0.3] = 0.0
        points[rng.random(points.shape) < 0.2] = -0.0
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (60, 2))
        for pose in (SE3.identity(), SE3.exp(rng.normal(scale=0.2, size=6))):
            res_v, jac_v, valid_v = _residuals_and_jacobian(CAMERA, pose, points, pixels)
            res_r, jac_r, valid_r = _residuals_and_jacobian_reference(
                CAMERA, pose, points, pixels
            )
            assert np.array_equal(valid_v, valid_r)
            assert np.array_equal(bits(res_v), bits(res_r))
            assert np.array_equal(bits(jac_v), bits(jac_r))
            assert jac_v.flags.c_contiguous


class TestStackedGeometry:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_dlt_matches_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        pose0 = SE3.exp(rng.normal(scale=0.3, size=6))
        pose1 = SE3.exp(rng.normal(scale=0.3, size=6))
        norm0 = rng.normal(scale=0.5, size=(n, 2))
        norm1 = rng.normal(scale=0.5, size=(n, 2))
        points, valid = triangulate_dlt(norm0, norm1, pose0, pose1)
        ref_points, ref_valid = _triangulate_dlt_reference(norm0, norm1, pose0, pose1)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(bits(points), bits(ref_points))

    @pytest.mark.parametrize("seed", range(4))
    def test_dlt_each_uses_each_points_poses(self, seed):
        rng = np.random.default_rng(seed)
        poses = [
            (SE3.exp(rng.normal(scale=0.3, size=6)), SE3.exp(rng.normal(scale=0.3, size=6)))
            for _ in range(25)
        ]
        norm0 = rng.normal(scale=0.5, size=(25, 2))
        norm1 = rng.normal(scale=0.5, size=(25, 2))
        points, valid = triangulate_dlt_each(
            norm0,
            norm1,
            np.stack([a.rotation for a, _ in poses]),
            np.stack([a.translation for a, _ in poses]),
            np.stack([b.rotation for _, b in poses]),
            np.stack([b.translation for _, b in poses]),
        )
        for i, (a, b) in enumerate(poses):
            one, one_valid = _triangulate_dlt_reference(norm0[i], norm1[i], a, b)
            assert valid[i] == one_valid[0]
            assert np.array_equal(bits(points[i]), bits(one[0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_reprojection_errors_each_matches_one_point_calls(self, seed):
        rng = np.random.default_rng(seed)
        poses = [SE3.exp(rng.normal(scale=0.3, size=6)) for _ in range(30)]
        points = random_points(rng, 30)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (30, 2))
        per_pose = reprojection_errors_each(
            CAMERA_MATRIX,
            np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]),
            points,
            pixels,
        )
        shared = reprojection_errors_each(
            CAMERA_MATRIX, poses[0].rotation, poses[0].translation, points, pixels
        )
        for i, pose in enumerate(poses):
            alone = reprojection_errors(CAMERA_MATRIX, pose, points[i][None], pixels[i][None])
            assert per_pose[i] == alone[0]
            first = reprojection_errors(
                CAMERA_MATRIX, poses[0], points[i][None], pixels[i][None]
            )
            assert shared[i] == first[0]

    def test_transform_each_matches_one_point_transforms(self):
        rng = np.random.default_rng(3)
        pose = SE3.exp(rng.normal(size=6))
        points = rng.normal(scale=4.0, size=(200, 3))
        stacked = pose.transform_each(points)
        for point, row in zip(points, stacked):
            assert np.array_equal(pose.transform(point), row)


class TestFillContour:
    SHAPE = (60, 80)

    def assert_same(self, contour, shape=SHAPE):
        assert np.array_equal(
            fill_contour(contour, shape), _fill_contour_reference(contour, shape)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_float_contours(self, seed):
        rng = np.random.default_rng(seed)
        for n in (3, 4, 9, 40, 192):
            self.assert_same(rng.uniform((-5.0, -5.0), (65.0, 85.0), (n, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_vertices_on_scanlines(self, seed):
        # Vertices exactly on rows and columns: the half-open crossing rule
        # and the ceil/floor span ends are all at their edge cases.
        rng = np.random.default_rng(seed)
        for n in (3, 5, 12, 30):
            self.assert_same(rng.integers(-3, 64, (n, 2)).astype(float))
        self.assert_same(np.array([[10.0, 10.0], [10.0, 40.0], [30.0, 40.0], [30.0, 10.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_contours_leaving_the_image(self, seed):
        rng = np.random.default_rng(seed)
        for scale in (100.0, 1e4, 1e9):
            self.assert_same(rng.uniform(-scale, scale, (20, 2)))
        # Entirely above, below, left and right of the image.
        for offset in ((-50.0, 10.0), (100.0, 10.0), (10.0, -60.0), (10.0, 120.0)):
            self.assert_same(rng.uniform(0.0, 20.0, (10, 2)) + offset)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_intersecting_contours(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.linspace(0.0, 4.0 * np.pi, 37, endpoint=False)
        star = np.column_stack(
            [30.0 + 25.0 * np.sin(2.5 * angles), 40.0 + 30.0 * np.cos(1.5 * angles)]
        )
        self.assert_same(star)
        self.assert_same(np.array([[5.0, 5.0], [50.0, 70.0], [5.0, 70.0], [50.0, 5.0]]))
        self.assert_same(rng.uniform(0.0, 60.0, (64, 2)))

    def test_fewer_than_three_points(self):
        self.assert_same(np.zeros((0, 2)))
        self.assert_same(np.array([[10.4, 20.6]]))
        self.assert_same(np.array([[10.4, 20.6], [-3.0, 100.0]]))

    def test_transferred_contour_at_qvga(self):
        angles = np.linspace(0.0, 2.0 * np.pi, 192, endpoint=False)
        contour = np.column_stack(
            [120.3 + 50.0 * np.sin(angles), 160.7 + 70.0 * np.cos(angles)]
        )
        self.assert_same(contour, (240, 320))


# ----------------------------------------------------------------------
# VO helpers on recorded map states: every dataset, two resolutions.
# ----------------------------------------------------------------------
VO_FRAMES = {(160, 120): 62, (320, 240): 44}


@pytest.fixture(
    scope="module",
    params=[(d, r) for r in VO_FRAMES for d in DATASET_NAMES],
    ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}",
)
def vo_states(request):
    """Snapshots of a tracking VO (with ground-truth masks applied every
    sixth frame, so the map holds unlabeled, background and object
    points) and the observation of the frame it last processed."""
    import copy

    dataset, resolution = request.param
    video = make_dataset(dataset, num_frames=VO_FRAMES[resolution], resolution=resolution, seed=0)
    frontend = OracleFrontend(video.world, video.camera, seed=0)
    vo = VisualOdometry(video.camera)
    states = []
    for index in range(VO_FRAMES[resolution]):
        frame, truth = video.frame_at(index)
        observation = frontend.observe(frame, truth)
        result = vo.process_frame(frame.index, frame.timestamp, observation)
        if not result.is_tracking:
            continue
        if index % 6 == 0:
            vo.apply_segmentation(frame.index, truth.masks)
        if index % 4 == 1 or index == VO_FRAMES[resolution] - 1:
            states.append((copy.deepcopy(vo), observation, result))
    assert states, "the VO never tracked"
    return states


def live_matches(vo, result):
    """The frame's matched point ids, with points culled since set to -1."""
    ids = result.matched_point_ids
    return np.where(np.isin(ids, vo.map.ids), ids, -1)


class TestVOHelpers:
    def test_states_cover_every_label_kind(self, vo_states):
        labels = np.concatenate([vo.map.labels for vo, _, _ in vo_states])
        assert (labels == 0).any() and (labels > 0).any()

    def test_visible_points(self, vo_states):
        for vo, _, _ in vo_states:
            for pose in (vo.pose_cw, vo._velocity @ vo.pose_cw):
                fast = vo._visible_points(pose)
                reference = vo._visible_points_reference(pose)
                for a, b in zip(fast, reference):
                    assert np.array_equal(a, b)

    def test_median_background_depth(self, vo_states):
        for vo, _, _ in vo_states:
            assert vo._median_background_depth() == vo._median_background_depth_reference()

    def test_gate_matches(self, vo_states):
        from repro.features.matcher import match_descriptors

        for vo, observation, _ in vo_states:
            ids, positions, _ = vo._visible_points(vo.pose_cw)
            matches = match_descriptors(
                observation.descriptors, vo.map.descriptors[vo.map.rows(ids)]
            )
            projected, _ = vo.camera.project_world(vo.pose_cw, positions)
            for gate in (2.0, 40.0, 120.0):
                fast = vo._gate_matches(observation.pixels, matches, projected, gate)
                reference = vo._gate_matches_reference(
                    observation.pixels, matches, projected, gate
                )
                assert np.array_equal(fast[0], reference[0])
                assert np.array_equal(fast[1], reference[1])
        empty = VisualOdometry._gate_matches(np.zeros((0, 2)), [], np.zeros((0, 2)), 1.0)
        assert len(empty[0]) == len(empty[1]) == 0

    def test_unlabeled_fraction_and_object_matches(self, vo_states):
        for vo, _, result in vo_states:
            matched = live_matches(vo, result)
            assert vo._unlabeled_fraction(matched) == vo._unlabeled_fraction_reference(
                matched
            )
            fast = vo._object_matches(matched)
            reference = vo._object_matches_reference(matched)
            assert [g[0] for g in fast] == [g[0] for g in reference]
            for (_, features, rows), (_, ref_features, ref_rows) in zip(fast, reference):
                assert np.array_equal(features, ref_features)
                assert np.array_equal(rows, ref_rows)

    def test_update_observations(self, vo_states):
        import copy

        rng = np.random.default_rng(0)
        for vo, observation, result in vo_states:
            matched = live_matches(vo, result)
            features = np.flatnonzero(matched >= 0)
            static = features[vo.map.labels[vo.map.rows(matched[features])] <= 0]
            errors = rng.uniform(0.0, 6.0, len(static))
            fast, reference = copy.deepcopy(vo), copy.deepcopy(vo)
            frame_index = result.frame_index + 1
            fast._update_observations(
                frame_index, matched, matched[static], observation.pixels[static], errors
            )
            reference._update_observations_reference(
                frame_index, matched, matched[static], observation.pixels[static], errors
            )
            assert_same_map(fast.map, reference.map)

    def test_new_point_gates(self, vo_states):
        rng = np.random.default_rng(1)
        for vo, _, _ in vo_states:
            partner = next(r for r in vo._recent if r.pose_cw is not None)
            points = vo.map.positions[vo.map.labels <= 0]
            pixels_now, _ = vo.camera.project_world(vo.pose_cw, points)
            pixels_then, _ = vo.camera.project_world(partner.pose_cw, points)
            pixels_now = pixels_now + rng.normal(scale=1.0, size=pixels_now.shape)
            args = (points, pixels_now, partner.pose_cw, pixels_then, vo.scene_depth())
            keep, parallax = vo._new_point_gates(*args)
            ref_keep, ref_parallax = vo._new_point_gates_reference(*args)
            assert np.array_equal(keep, ref_keep)
            assert np.array_equal(bits(parallax), bits(ref_parallax))

    def test_refined_structure(self, vo_states):
        refined = 0
        for vo, _, result in vo_states:
            for frame_index in (result.frame_index, result.frame_index - 1):
                fast = vo._refined_structure(frame_index)
                reference = vo._refined_structure_reference(frame_index)
                assert np.array_equal(fast[0], reference[0])
                assert np.array_equal(bits(fast[1]), bits(reference[1]))
                assert np.array_equal(bits(fast[2]), bits(reference[2]))
                refined += len(fast[0])
        # Every configuration re-triangulates some points, not only gates.
        assert refined > 0


def assert_same_map(a, b):
    for column in (
        "ids", "positions", "descriptors", "labels", "last_seen_frames", "parallax",
        "first_pixels", "last_pixels",
    ):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    for column in ("_observation_counts", "_outlier_counts", "_first_frames"):
        assert np.array_equal(getattr(a, column)[: len(a)], getattr(b, column)[: len(b)])
    for column in ("first_poses", "last_poses"):
        for pose_a, pose_b in zip(getattr(a, column), getattr(b, column)):
            assert (pose_a is None) == (pose_b is None)
            if pose_a is not None:
                assert np.array_equal(pose_a.rotation, pose_b.rotation)
                assert np.array_equal(pose_a.translation, pose_b.translation)
