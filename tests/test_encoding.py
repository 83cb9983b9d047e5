"""Tests for tile encoding and CFRS (Section V)."""

import numpy as np
import pytest

from repro.encoding import (
    CFRSConfig,
    ContentRoiSelector,
    EncodedFrame,
    TileGrid,
    TileQuality,
    encode_frame,
)
from repro.image import InstanceMask


def textured_gray(shape=(240, 320), seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(128, 30, size=shape).astype(np.float32)
    return np.clip(base, 0, 255)


def disk_mask(shape, center, radius):
    rr, cc = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (rr - center[0]) ** 2 + (cc - center[1]) ** 2 <= radius**2


class TestTileGrid:
    def test_dimensions(self):
        grid = TileGrid(240, 320, 16)
        assert grid.rows == 15 and grid.cols == 20
        assert grid.num_tiles == 300

    def test_ragged_edge(self):
        grid = TileGrid(250, 330, 16)
        counts = grid.tile_pixel_counts()
        assert counts.sum() == 250 * 330
        assert counts[-1, -1] == (250 - 15 * 16) * (330 - 20 * 16)

    def test_tile_of_pixel(self):
        grid = TileGrid(240, 320, 16)
        assert grid.tile_of_pixel(0, 0) == (0, 0)
        assert grid.tile_of_pixel(17, 33) == (1, 2)
        assert grid.tile_of_pixel(1000, 1000) == (14, 19)  # clamped

    def test_tiles_overlapping_box(self):
        grid = TileGrid(240, 320, 16)
        rows, cols = grid.tiles_overlapping_box((16, 32, 48, 64))
        assert rows == slice(2, 4) and cols == slice(1, 3)

    def test_coverage_mask(self):
        grid = TileGrid(240, 320, 16)
        mask = disk_mask((240, 320), (100, 100), 20)
        coverage = grid.coverage_mask_from_rastermask(mask)
        assert coverage.any()
        # Coverage only near the disk's tiles.
        rows, cols = np.nonzero(coverage)
        assert rows.min() >= 4 and rows.max() <= 8
        assert cols.min() >= 4 and cols.max() <= 8


class TestEncodeFrame:
    def test_higher_quality_more_bytes(self):
        gray = textured_gray()
        grid = TileGrid(240, 320, 16)
        sizes = {}
        for quality in TileQuality:
            qualities = np.full((grid.rows, grid.cols), int(quality), dtype=int)
            sizes[quality] = encode_frame(gray, qualities, grid).total_bytes
        assert (
            sizes[TileQuality.SKIP]
            < sizes[TileQuality.LOW]
            < sizes[TileQuality.MEDIUM]
            < sizes[TileQuality.HIGH]
        )

    def test_flat_image_compresses_to_nothing(self):
        flat = np.full((240, 320), 100.0, dtype=np.float32)
        grid = TileGrid(240, 320, 16)
        qualities = np.full((grid.rows, grid.cols), int(TileQuality.HIGH), dtype=int)
        encoded = encode_frame(flat, qualities, grid)
        # Zero entropy -> only container overhead.
        assert encoded.total_bytes <= 300

    def test_plausible_hevc_scale(self):
        # At full quality and the device's 720p-class capture resolution
        # (CAPTURE_SCALE), a textured frame is in the HEVC-intra range of
        # tens to ~250 kB.
        gray = textured_gray()
        grid = TileGrid(240, 320, 16)
        qualities = np.full((grid.rows, grid.cols), int(TileQuality.HIGH), dtype=int)
        encoded = encode_frame(gray, qualities, grid)
        assert 50_000 < encoded.total_bytes < 350_000

    def test_fidelity_for_box(self):
        gray = textured_gray()
        grid = TileGrid(240, 320, 16)
        qualities = np.full((grid.rows, grid.cols), int(TileQuality.LOW), dtype=int)
        qualities[5:8, 5:8] = int(TileQuality.HIGH)
        encoded = encode_frame(gray, qualities, grid)
        high_box = (5 * 16, 5 * 16, 8 * 16, 8 * 16)
        low_box = (200, 200, 260, 230)
        assert encoded.fidelity_for_box(high_box) > encoded.fidelity_for_box(low_box)

    def test_shape_mismatch_raises(self):
        gray = textured_gray()
        grid = TileGrid(240, 320, 16)
        with pytest.raises(ValueError):
            encode_frame(gray, np.zeros((3, 3), dtype=int), grid)

    def test_quality_lookup_gives_exact_factors(self):
        from repro.encoding.tiles import (
            _FACTOR_BY_QUALITY,
            _QUALITY_FACTOR,
            CAPTURE_SCALE,
        )
        from repro.image.frame import block_entropy

        gray = textured_gray()
        grid = TileGrid(240, 320, 16)
        # Every TileQuality level appears in the map.
        qualities = np.arange(grid.rows * grid.cols).reshape(grid.rows, grid.cols) % 4
        factors = _FACTOR_BY_QUALITY[qualities]
        assert factors.dtype == np.float64
        assert factors.tolist() == [
            [_QUALITY_FACTOR[TileQuality(q)] for q in row] for row in qualities.tolist()
        ]
        # encode_frame sizes tiles with exactly these factors: the
        # per-tile Enum lookup it replaced gives byte-identical sizes.
        reference = np.vectorize(lambda q: _QUALITY_FACTOR[TileQuality(int(q))])(qualities)
        expected = (
            block_entropy(gray, grid.tile_size)
            * reference
            * grid.tile_pixel_counts()
            * CAPTURE_SCALE
            / 8.0
        )
        np.testing.assert_array_equal(encode_frame(gray, qualities, grid).tile_bytes, expected)


class TestCFRSDecisions:
    def make_selector(self, **kwargs):
        return ContentRoiSelector((240, 320), CFRSConfig(**kwargs))

    def test_new_content_triggers(self):
        selector = self.make_selector()
        decision = selector.decide(100, 0.4, {}, np.zeros((0, 2)), True)
        assert decision.should_send and decision.reason == "new-content"

    def test_covered_scene_waits(self):
        selector = self.make_selector()
        decision = selector.decide(100, 0.05, {}, np.zeros((0, 2)), True)
        assert decision.should_send and decision.reason == "refresh"  # first ever
        decision = selector.decide(105, 0.05, {}, np.zeros((0, 2)), True)
        assert not decision.should_send

    def test_min_interval_rate_limits(self):
        selector = self.make_selector(min_interval_frames=6)
        assert selector.decide(10, 0.9, {}, np.zeros((0, 2)), True).should_send
        follow_up = selector.decide(12, 0.9, {}, np.zeros((0, 2)), True)
        assert not follow_up.should_send
        assert follow_up.reason == "rate-limited"

    def test_object_motion_triggers(self):
        selector = self.make_selector()
        selector.decide(0, 0.9, {}, np.zeros((0, 2)), True)  # baseline send
        decision = selector.decide(10, 0.05, {7: 0.5}, np.zeros((0, 2)), True)
        assert decision.should_send and decision.reason == "object-motion"
        # Re-triggering requires *additional* motion beyond the baseline.
        decision = selector.decide(20, 0.05, {7: 0.5}, np.zeros((0, 2)), True)
        assert decision.reason != "object-motion"

    def test_max_interval_refresh(self):
        selector = self.make_selector(max_interval_frames=20)
        selector.decide(0, 0.9, {}, np.zeros((0, 2)), True)
        assert not selector.decide(10, 0.05, {}, np.zeros((0, 2)), True).should_send
        decision = selector.decide(21, 0.05, {}, np.zeros((0, 2)), True)
        assert decision.should_send and decision.reason == "refresh"

    def test_initializing_sends_at_cadence(self):
        selector = self.make_selector(min_interval_frames=6)
        assert selector.decide(0, 1.0, {}, np.zeros((0, 2)), False).should_send
        assert not selector.decide(3, 1.0, {}, np.zeros((0, 2)), False).should_send
        assert selector.decide(6, 1.0, {}, np.zeros((0, 2)), False).should_send


class TestCFRSRegions:
    def test_new_area_boxes_cluster(self):
        selector = ContentRoiSelector((240, 320))
        cluster = np.array([[100 + i, 60 + j] for i in range(0, 40, 5) for j in range(0, 40, 5)])
        boxes = selector.new_area_boxes(cluster)
        assert len(boxes) == 1
        x0, y0, x1, y1 = boxes[0]
        assert x0 <= 100 and x1 >= 140
        assert y0 <= 60 and y1 >= 95  # points reach v=95; box is tile-quantized

    def test_stray_tiles_ignored(self):
        selector = ContentRoiSelector((240, 320))
        assert selector.new_area_boxes(np.array([[10.0, 10.0]])) == []

    def test_quality_map_structure(self):
        selector = ContentRoiSelector((240, 320))
        shape = (240, 320)
        mask = InstanceMask(1, "car", disk_mask(shape, (120, 160), 50))
        qualities = selector.quality_map([mask], [np.array([0.0, 0.0, 48.0, 48.0])])
        # Center of the object: medium (interior).
        assert qualities[7, 10] == int(TileQuality.MEDIUM)
        # New area: high.
        assert qualities[0, 0] == int(TileQuality.HIGH)
        # Far corner: low.
        assert qualities[-1, -1] == int(TileQuality.LOW)
        # There is a high-quality contour band.
        assert (qualities == int(TileQuality.HIGH)).sum() > 4

    def test_cfrs_encoding_smaller_than_uniform_high(self):
        selector = ContentRoiSelector((240, 320))
        gray = textured_gray()
        mask = InstanceMask(1, "car", disk_mask((240, 320), (120, 160), 40))
        cfrs_bytes = selector.encode(0, gray, [mask], []).total_bytes
        uniform_bytes = selector.encode_uniform(0, gray, TileQuality.HIGH).total_bytes
        assert cfrs_bytes < 0.6 * uniform_bytes
