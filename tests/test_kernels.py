"""Property-style equivalence tests: every vectorized hot-path kernel
against its retained scalar ``*_reference`` implementation.

These are the correctness contract behind the ``micro`` bench suite
(:mod:`repro.obs.kernelbench`): the bench gates *speed*, these tests gate
*equivalence* — over random seeds, degenerate shapes, and the branch
points of each kernel (empty inputs, dense-vs-sparse paths, clamps).
Most pairs are bit-identical; the k-NN depth lookup is atol-bounded
because ``cKDTree`` and the argsort reference may order exact distance
ties differently.  The client frame path (renderer, texture sampling,
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
from repro.geometry.se3 import SE3
from repro.geometry.triangulation import reprojection_errors_batch
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
        # Not bit-identical by design: cKDTree and the argsort reference
        # may break exact distance ties differently (measure zero here).
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
        # k=1: cKDTree returns a 1-D index array; the reshape branch must
        # keep the per-pixel mean well-formed.
        contour_uv = np.array([[0.0, 0.0], [10.0, 10.0]])
        feature_pixels = np.array([[0.1, 0.0], [10.0, 10.1]])
        depths = np.array([4.0, 6.0])
        vec = contour_depths(contour_uv, feature_pixels, depths, 1)
        assert np.allclose(vec, [4.0, 6.0])

    def test_prebuilt_tree_equivalent(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(8)
        contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (30, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (60, 2))
        depths = rng.uniform(2.0, 8.0, 60)
        tree = cKDTree(feature_pixels)
        assert np.array_equal(
            contour_depths(contour_uv, feature_pixels, depths, 5, tree=tree),
            contour_depths(contour_uv, feature_pixels, depths, 5),
        )


def assert_same_render(a, b):
    assert np.array_equal(a.frame.image, b.frame.image)
    assert np.array_equal(a.label_map, b.label_map)
    assert np.array_equal(a.depth, b.depth)


def render_both(renderer, pose_cw, time, index=0):
    return (
        renderer.render(pose_cw, time, frame_index=index),
        renderer.render_reference(pose_cw, time, frame_index=index),
    )


class TestRenderer:
    @pytest.mark.parametrize("resolution", [(320, 240), (160, 120)])
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
            result = video._renderer.render(
                video.trajectory.pose_cw(index / video.fps), index / video.fps
            )
            expected = [int(i) for i in np.unique(result.label_map) if i != 0]
            assert result.visible_instance_ids == expected


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
