"""Tile-level frame encoding with a content-entropy rate model.

The paper encodes offloaded frames with Kvazaar (HEVC) at tile granularity,
giving each region a compression level matched to its content value
(Fig. 8d).  Here a frame is divided into fixed-size tiles; each tile's
encoded size is its pixel count times a bits-per-pixel estimate derived
from the tile's intensity entropy and the assigned quality level.  The
absolute rate constants are calibrated to HEVC-intra-like sizes (a
320x240 all-high frame lands around 20-25 kB).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..image.frame import block_entropy

__all__ = ["TileQuality", "TileGrid", "EncodedFrame", "encode_frame"]


class TileQuality(IntEnum):
    """Compression level of a tile (higher = more bits kept)."""

    SKIP = 0  # not transmitted / fully flattened
    LOW = 1
    MEDIUM = 2
    HIGH = 3


# bits per pixel = entropy_bits * factor[quality]
_QUALITY_FACTOR = {
    TileQuality.SKIP: 0.004,
    TileQuality.LOW: 0.06,
    TileQuality.MEDIUM: 0.22,
    TileQuality.HIGH: 0.55,
}
# The same factors indexed by quality level, for whole quality maps.
_FACTOR_BY_QUALITY = np.array([_QUALITY_FACTOR[q] for q in TileQuality], dtype=np.float64)

# Offloaded frames are encoded at the device's *capture* resolution
# (720p-1080p in the paper's deployment), not at the simulation raster.
# The per-tile content statistics scale with the pixel budget, so encoded
# sizes are multiplied by this factor (≈ 720p / 320x240).
CAPTURE_SCALE = 6.0

# Relative segmentation usefulness of a tile at each quality: the edge
# model's mask quality on an object degrades when its tiles arrive coarse.
QUALITY_FIDELITY = {
    TileQuality.SKIP: 0.0,
    TileQuality.LOW: 0.55,
    TileQuality.MEDIUM: 0.85,
    TileQuality.HIGH: 1.0,
}


@dataclass
class TileGrid:
    """Fixed tiling of a frame."""

    frame_height: int
    frame_width: int
    tile_size: int = 16

    @property
    def rows(self) -> int:
        return int(np.ceil(self.frame_height / self.tile_size))

    @property
    def cols(self) -> int:
        return int(np.ceil(self.frame_width / self.tile_size))

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def tile_of_pixel(self, row: float, col: float) -> tuple[int, int]:
        return (
            int(np.clip(row // self.tile_size, 0, self.rows - 1)),
            int(np.clip(col // self.tile_size, 0, self.cols - 1)),
        )

    def tiles_overlapping_box(self, box) -> tuple[slice, slice]:
        """Tile-index slices covering box (x0, y0, x1, y1)."""
        x0, y0, x1, y1 = box
        r0 = int(np.clip(y0 // self.tile_size, 0, self.rows - 1))
        c0 = int(np.clip(x0 // self.tile_size, 0, self.cols - 1))
        r1 = int(np.clip(np.ceil(y1 / self.tile_size), r0 + 1, self.rows))
        c1 = int(np.clip(np.ceil(x1 / self.tile_size), c0 + 1, self.cols))
        return slice(r0, r1), slice(c0, c1)

    def coverage_mask_from_rastermask(self, mask: np.ndarray) -> np.ndarray:
        """(rows, cols) boolean map of tiles containing any True pixel."""
        out = np.zeros((self.rows, self.cols), dtype=bool)
        rows_idx, cols_idx = np.nonzero(mask)
        if len(rows_idx):
            out[rows_idx // self.tile_size, cols_idx // self.tile_size] = True
        return out

    def tile_pixel_counts(self) -> np.ndarray:
        """Pixel count of each tile (edge tiles may be smaller)."""
        heights = np.full(self.rows, self.tile_size)
        heights[-1] = self.frame_height - (self.rows - 1) * self.tile_size
        widths = np.full(self.cols, self.tile_size)
        widths[-1] = self.frame_width - (self.cols - 1) * self.tile_size
        return np.outer(heights, widths)


@dataclass
class EncodedFrame:
    """Result of tile-encoding one frame."""

    frame_index: int
    quality_map: np.ndarray  # (rows, cols) of TileQuality ints
    tile_bytes: np.ndarray  # (rows, cols) float bytes
    grid: TileGrid

    @property
    def total_bytes(self) -> int:
        return int(self.tile_bytes.sum()) + 200  # container/header overhead

    def quality_fraction(self, quality: TileQuality) -> float:
        return float((self.quality_map == int(quality)).mean())

    def fidelity_for_box(self, box) -> float:
        """Mean fidelity of the tiles under a box — drives how well the
        edge model can segment the object inside it."""
        rows, cols = self.grid.tiles_overlapping_box(box)
        qualities = self.quality_map[rows, cols].ravel()
        if qualities.size == 0:
            return 0.0
        return float(
            np.mean([QUALITY_FIDELITY[TileQuality(int(q))] for q in qualities])
        )


def encode_frame(
    gray: np.ndarray,
    quality_map: np.ndarray,
    grid: TileGrid,
    frame_index: int = 0,
) -> EncodedFrame:
    """Encode a grayscale frame under a per-tile quality assignment."""
    entropy = block_entropy(gray, grid.tile_size)
    if entropy.shape != (grid.rows, grid.cols):
        raise ValueError("quality map / grid / frame size mismatch")
    if quality_map.shape != entropy.shape:
        raise ValueError("quality map shape mismatch")
    pixel_counts = grid.tile_pixel_counts()
    bits = entropy * _FACTOR_BY_QUALITY[quality_map] * pixel_counts * CAPTURE_SCALE
    return EncodedFrame(
        frame_index=frame_index,
        quality_map=quality_map.astype(int),
        tile_bytes=bits / 8.0,
        grid=grid,
    )
