"""The numpy raster and search kernels of the simulated path against their
scipy twins: erosion, dilation, connected-component labelling, the k-NN of
``contour_depths`` and the blocked Fast NMS.  Every comparison is exact."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage
from scipy.spatial import cKDTree

from repro.encoding.tiles import TileGrid
from repro.eval.experiments import ExperimentSpec, run_experiment
from repro.image.contours import mask_boundary
from repro.image.morphology import (
    _binary_dilation_reference,
    _binary_erosion_reference,
    _label_reference,
    binary_dilation,
    binary_erosion,
    label,
)
from repro.model import acceleration
from repro.model.nms import FAST_NMS_BLOCK_ROWS, _fast_nms_reference, fast_nms
from repro.synthetic import DATASET_NAMES, make_dataset
from repro.transfer import mask_transfer
from repro.transfer.mask_transfer import contour_depths

SRC = Path(__file__).resolve().parents[1] / "src"
RESOLUTIONS = [(160, 120), (320, 240)]


def _dataset_masks(name, resolution):
    """Truth masks of a few frames of one dataset, and each frame's tile
    occupancy (the CFRS grid the 4-connected labelling runs on)."""
    video = make_dataset(name, num_frames=60, resolution=resolution, seed=3)
    grid = TileGrid(resolution[1], resolution[0], 16)
    masks, grids = [], []
    for index in (0, 29, 59):
        _, truth = video.frame_at(index)
        frame_masks = [np.array(m.mask) for m in truth.masks]
        masks += frame_masks
        for mask in frame_masks:
            grids.append(grid.coverage_mask_from_rastermask(mask_boundary(mask)))
    return masks, grids


@pytest.fixture(scope="module", params=[(d, r) for d in DATASET_NAMES for r in RESOLUTIONS])
def dataset_masks(request):
    masks, grids = _dataset_masks(*request.param)
    assert masks
    return masks, grids


def assert_same_labels(mask, connectivity):
    ours, count = label(mask, connectivity)
    theirs, their_count = _label_reference(mask, connectivity)
    assert count == their_count
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


def assert_same_morphology(mask, iterations):
    assert np.array_equal(binary_erosion(mask), _binary_erosion_reference(mask))
    assert np.array_equal(
        binary_dilation(mask, iterations), _binary_dilation_reference(mask, iterations)
    )


class TestMorphology:
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_dataset_masks(self, dataset_masks, iterations):
        masks, grids = dataset_masks
        for mask in masks + grids:
            assert_same_morphology(mask, iterations)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_edge_touching_masks(self, iterations):
        full = np.ones((7, 9), dtype=bool)
        corner = np.zeros((7, 9), dtype=bool)
        corner[:3, :2] = True
        rim = ~np.pad(np.ones((5, 7), dtype=bool), 1)
        for mask in (full, corner, rim, full[:1], full[:, :2], full[:1, :1]):
            assert_same_morphology(mask, iterations)

    def test_matches_scipy_defaults(self):
        mask = np.random.default_rng(0).random((20, 30)) < 0.6
        assert np.array_equal(binary_erosion(mask), ndimage.binary_erosion(mask))
        assert np.array_equal(binary_dilation(mask), ndimage.binary_dilation(mask))

    def test_rejects_bad_iterations_and_shapes(self):
        with pytest.raises(ValueError):
            binary_dilation(np.ones((4, 4), dtype=bool), iterations=0)
        with pytest.raises(ValueError):
            binary_dilation(np.ones(4, dtype=bool))
        with pytest.raises(ValueError):
            binary_erosion(np.ones(4, dtype=bool))

    @settings(max_examples=60, deadline=None)
    @given(
        mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24)),
        iterations=st.integers(1, 3),
    )
    def test_random_masks(self, mask, iterations):
        assert_same_morphology(mask, iterations)


class TestLabel:
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_dataset_masks(self, dataset_masks, connectivity):
        masks, grids = dataset_masks
        for mask in masks + grids:
            assert_same_labels(mask, connectivity)
        # All of a frame's instances at once: several components.
        assert_same_labels(np.logical_or.reduce(masks), connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_u_shapes_merge_late(self, connectivity):
        # Two arms that only meet on the bottom row, a nested U inside a
        # U, and a spiral: every component's first pixel comes early but
        # its runs join late.
        u = np.zeros((8, 9), dtype=bool)
        u[:, 0] = u[:, 8] = u[7, :] = True
        u[:6, 2] = u[:6, 6] = u[5, 2:7] = True
        spiral = np.zeros((11, 11), dtype=bool)
        spiral[0, :] = spiral[:, 10] = spiral[10, :] = spiral[2:, 0] = True
        spiral[2, :9] = spiral[2:9, 8] = spiral[8, 2:9] = spiral[4:9, 2] = True
        spiral[4, 2:7] = spiral[4:7, 6] = True
        # Diagonal-only contacts: one component for 8-connectivity, many
        # for 4-connectivity.
        checker = (np.add.outer(np.arange(6), np.arange(7)) % 2).astype(bool)
        for mask in (u, spiral, checker, u[::-1], spiral.T):
            assert_same_labels(mask, connectivity)

    def test_empty_and_full(self):
        for mask in (np.zeros((5, 6), dtype=bool), np.ones((5, 6), dtype=bool)):
            for connectivity in (4, 8):
                assert_same_labels(mask, connectivity)

    def test_rejects_other_connectivity(self):
        with pytest.raises(ValueError):
            label(np.ones((3, 3), dtype=bool), connectivity=6)

    @settings(max_examples=80, deadline=None)
    @given(
        mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=32)),
        connectivity=st.sampled_from([4, 8]),
    )
    def test_random_masks(self, mask, connectivity):
        assert_same_labels(mask, connectivity)


@pytest.fixture(scope="module")
def recorded_calls():
    """The k-NN and Fast NMS inputs of a short edgeIS run on each dataset."""
    calls = {"knn": [], "nms": []}
    knn, nms = mask_transfer.contour_depths, acceleration.fast_nms

    def spy_knn(contour_uv, feature_pixels, depths, k):
        calls["knn"].append((contour_uv, feature_pixels, depths, k))
        return knn(contour_uv, feature_pixels, depths, k)

    def spy_nms(boxes, scores, iou_threshold=0.5):
        calls["nms"].append((boxes, scores, iou_threshold))
        return nms(boxes, scores, iou_threshold)

    mp = pytest.MonkeyPatch()
    mp.setattr(mask_transfer, "contour_depths", spy_knn)
    mp.setattr(acceleration, "fast_nms", spy_nms)
    try:
        for name in DATASET_NAMES:
            spec = ExperimentSpec(
                system="edgeis", dataset=name, num_frames=90, resolution=(160, 120), seed=1
            )
            before = len(calls["knn"])
            run_experiment(spec)
            assert len(calls["knn"]) > before, name
    finally:
        mp.undo()
    return calls


def _tree_neighbours(contour_uv, feature_pixels, k):
    k = min(k, len(feature_pixels))
    _, indices = cKDTree(feature_pixels).query(contour_uv, k=k)
    return indices.reshape(len(contour_uv), k)


class TestContourDepthsKnn:
    def test_recorded_sets_match_ckdtree(self, recorded_calls):
        for contour_uv, feature_pixels, depths, k in recorded_calls["knn"]:
            indices = _tree_neighbours(contour_uv, feature_pixels, k)
            assert np.array_equal(
                contour_depths(contour_uv, feature_pixels, depths, k),
                depths[indices].mean(axis=1),
            )

    def test_ties_break_by_index(self):
        # Four features at distance 1 and one at distance 2 of the origin:
        # k=3 takes the three lowest-index ties in index order.
        feature_pixels = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        depths = np.array([100.0, 1.0, 2.0, 4.0, 8.0])
        assert contour_depths(np.zeros((1, 2)), feature_pixels, depths, 3)[0] == pytest.approx(
            7.0 / 3.0
        )

    @pytest.mark.parametrize("features", [3, 40, 400])
    def test_random_sets_match_ckdtree(self, features):
        # From fewer features than k up to the frontend's 400 per frame.
        rng = np.random.default_rng(features)
        contour_uv = rng.uniform((0.0, 0.0), (320.0, 240.0), (192, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (320.0, 240.0), (features, 2))
        depths = rng.uniform(2.0, 8.0, features)
        indices = _tree_neighbours(contour_uv, feature_pixels, 5)
        assert np.array_equal(
            contour_depths(contour_uv, feature_pixels, depths, 5),
            depths[indices].mean(axis=1),
        )


class TestBlockedFastNms:
    def test_recorded_proposals(self, recorded_calls):
        assert recorded_calls["nms"]
        for boxes, scores, threshold in recorded_calls["nms"]:
            assert np.array_equal(
                fast_nms(boxes, scores, threshold), _fast_nms_reference(boxes, scores, threshold)
            )

    @pytest.mark.parametrize(
        "count", [0, 1, 2, FAST_NMS_BLOCK_ROWS - 1, FAST_NMS_BLOCK_ROWS, 2 * FAST_NMS_BLOCK_ROWS + 1]
    )
    def test_block_edges(self, count):
        rng = np.random.default_rng(count)
        xy = rng.uniform(0, 100, (count, 2))
        boxes = np.column_stack([xy, xy + rng.uniform(5, 40, (count, 2))])
        scores = rng.uniform(0, 1, count)
        ours = fast_nms(boxes, scores, 0.5)
        reference = _fast_nms_reference(boxes, scores, 0.5)
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(0, 300),
        threshold=st.floats(0.1, 0.9),
    )
    def test_random_boxes(self, seed, count, threshold):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 160, (count, 2))
        boxes = np.column_stack([xy, xy + rng.uniform(1, 60, (count, 2))])
        # Coarse scores so equal scores (sort ties) occur.
        scores = rng.integers(0, 8, count) / 8.0
        assert np.array_equal(
            fast_nms(boxes, scores, threshold), _fast_nms_reference(boxes, scores, threshold)
        )


def test_simulated_runs_import_no_scipy():
    """The simulated path (an edgeIS run and a baseline+MAMT fleet) never
    loads scipy; only the FAST+BRIEF frontend and the tests need it."""
    script = textwrap.dedent(
        """
        import sys
        from repro.eval.experiments import ExperimentSpec, FleetSpec, run_experiment, run_fleet

        run_experiment(ExperimentSpec(system="edgeis", num_frames=10, seed=1))
        run_fleet(FleetSpec(system="baseline+mamt", num_clients=2, num_frames=10, seed=1))
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
        print("ok")
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
