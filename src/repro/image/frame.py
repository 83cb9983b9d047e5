"""Video frame container and basic raster operations.

This module stands in for the slice of OpenCV the paper's client uses for
"feeding video frames at fixed 30 fps" — grayscale conversion, Gaussian
smoothing, gradients and pyramids, in numpy.  The filters of the real
FAST+BRIEF frontend (blur, Sobel) import ``scipy.ndimage`` when called,
so the simulated path, which never calls them, loads no scipy.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = [
    "VideoFrame",
    "to_grayscale",
    "gaussian_blur",
    "sobel_gradients",
    "downsample",
    "image_entropy",
    "block_entropy",
]


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """ITU-R BT.601 luma conversion to float32 in [0, 255]."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.float32)
    if image.ndim == 3 and image.shape[2] == 3:
        weights = np.array([0.299, 0.587, 0.114], dtype=np.float32)
        return image.astype(np.float32) @ weights
    raise ValueError(f"expected (H, W) or (H, W, 3) image, got {image.shape}")


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    from scipy import ndimage

    return ndimage.gaussian_filter(np.asarray(image, dtype=np.float32), sigma=sigma)


def sobel_gradients(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) Sobel gradients of a grayscale image."""
    from scipy import ndimage

    gray = np.asarray(gray, dtype=np.float32)
    gx = ndimage.sobel(gray, axis=1)
    gy = ndimage.sobel(gray, axis=0)
    return gx, gy


def downsample(gray: np.ndarray, factor: int = 2) -> np.ndarray:
    """Anti-aliased decimation for image pyramids."""
    if factor <= 1:
        return np.asarray(gray, dtype=np.float32)
    blurred = gaussian_blur(gray, sigma=0.5 * factor)
    return blurred[::factor, ::factor]


def resize_bilinear(gray: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resize by an arbitrary scale factor (ORB pyramid levels)."""
    gray = np.asarray(gray, dtype=np.float32)
    if scale == 1.0:
        return gray.copy()
    if scale < 1.0:
        gray = gaussian_blur(gray, sigma=0.5 / scale - 0.5)
    out_h = max(int(round(gray.shape[0] * scale)), 1)
    out_w = max(int(round(gray.shape[1] * scale)), 1)
    ys = np.linspace(0, gray.shape[0] - 1, out_h)
    xs = np.linspace(0, gray.shape[1] - 1, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gray.shape[0] - 1)
    x1 = np.minimum(x0 + 1, gray.shape[1] - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = gray[np.ix_(y0, x0)] * (1 - wx) + gray[np.ix_(y0, x1)] * wx
    bottom = gray[np.ix_(y1, x0)] * (1 - wx) + gray[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def image_entropy(gray: np.ndarray, bins: int = 32) -> float:
    """Shannon entropy of the intensity histogram, in bits.

    The tile encoder's rate model treats entropy as a proxy for how many
    bits a region costs to encode at a given quality.
    """
    gray = np.asarray(gray, dtype=np.float32)
    if gray.size == 0:
        return 0.0
    hist, _ = np.histogram(gray, bins=bins, range=(0.0, 255.0))
    total = hist.sum()
    if total == 0:
        return 0.0
    probabilities = hist[hist > 0] / total
    return float(-np.sum(probabilities * np.log2(probabilities)))


def _histogram_bins(values: np.ndarray, bins: int, first: float, last: float) -> np.ndarray:
    """Bin index of every value under ``np.histogram(bins=bins,
    range=(first, last))``: the same uniform-bin estimate and the same
    one-step correction against the bin edges, so every value lands in
    the bin ``np.histogram`` counts it in.  Values the histogram drops
    (outside the range, or NaN) get index ``bins``."""
    edges = np.linspace(first, last, bins + 1, dtype=values.dtype)
    keep = values >= first
    keep &= values <= last
    kept = np.where(keep, values, values.dtype.type(first))
    indices = ((kept - first) / np.float64(last - first) * bins).astype(np.intp)
    indices[indices == bins] -= 1
    indices[kept < edges[indices]] -= 1
    increment = kept >= edges[indices + 1]
    increment &= indices != bins - 1
    indices[increment] += 1
    indices[~keep] = bins
    return indices


def block_entropy(gray: np.ndarray, block: int) -> np.ndarray:
    """Per-block entropy map of a grayscale image.

    Returns an array of shape ``(ceil(H/block), ceil(W/block))``, each
    cell :func:`image_entropy` of its block.  Every pixel's histogram
    bin is found once and each block's bins are counted by one
    ``bincount``; only the entropy sum runs per block, in the form
    :func:`image_entropy` uses, so the map is bit-identical to
    :func:`_block_entropy_reference`.
    """
    gray = np.asarray(gray, dtype=np.float32)
    height, width = gray.shape
    rows = int(np.ceil(height / block))
    cols = int(np.ceil(width / block))
    bins = 32
    cell = (np.arange(height) // block)[:, None] * cols + np.arange(width) // block
    keys = cell * (bins + 1)
    keys += _histogram_bins(gray, bins, 0.0, 255.0)
    counts = np.bincount(keys.ravel(), minlength=rows * cols * (bins + 1))
    counts = counts.reshape(rows * cols, bins + 1)[:, :bins]
    occupied = counts > 0
    per_block = occupied.sum(axis=1)
    # Each block's non-empty bins over its total, block after block: the
    # divisions image_entropy makes, in one pass.
    probabilities = counts[occupied] / np.repeat(counts.sum(axis=1), per_block)
    ends = np.cumsum(per_block).tolist()
    out = np.zeros(rows * cols, dtype=np.float32)
    start = 0
    for index, end in enumerate(ends):
        if end > start:
            p = probabilities[start:end]
            out[index] = -np.sum(p * np.log2(p))
            start = end
    return out.reshape(rows, cols)


def _block_entropy_reference(gray: np.ndarray, block: int) -> np.ndarray:
    """One ``np.histogram`` per block: the form :func:`block_entropy`
    must match bit for bit (equivalence oracle)."""
    gray = np.asarray(gray, dtype=np.float32)
    rows = int(np.ceil(gray.shape[0] / block))
    cols = int(np.ceil(gray.shape[1] / block))
    out = np.zeros((rows, cols), dtype=np.float32)
    for r in range(rows):
        for c in range(cols):
            tile = gray[r * block : (r + 1) * block, c * block : (c + 1) * block]
            out[r, c] = image_entropy(tile)
    return out


class VideoFrame:
    """One frame of a 30 fps stream.

    Attributes
    ----------
    index:
        Sequence number in the video.
    timestamp:
        Capture time in seconds (index / fps for synthetic streams).
    image:
        (H, W, 3) uint8 RGB raster.  A frame built by :meth:`deferred`
        computes it on first read; ``shape``, ``height`` and ``width``
        never need it.
    """

    def __init__(self, index: int, timestamp: float, image: np.ndarray):
        image = np.asarray(image)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError("VideoFrame.image must be (H, W, 3)")
        self.index = index
        self.timestamp = timestamp
        self._image: np.ndarray | None = image
        self._make_image: Callable[[], np.ndarray] | None = None
        self._shape = (int(image.shape[0]), int(image.shape[1]))
        self._gray: np.ndarray | None = None

    @classmethod
    def deferred(
        cls,
        index: int,
        timestamp: float,
        shape: tuple[int, int],
        make_image: Callable[[], np.ndarray],
    ) -> "VideoFrame":
        """A ``shape`` frame whose image ``make_image()`` computes the
        first time anything reads ``image`` or ``gray``."""
        frame = cls.__new__(cls)
        frame.index = index
        frame.timestamp = timestamp
        frame._image = None
        frame._make_image = make_image
        frame._shape = (int(shape[0]), int(shape[1]))
        frame._gray = None
        return frame

    @property
    def image(self) -> np.ndarray:
        if self._image is None:
            self._image = self._make_image()
            self._make_image = None
        return self._image

    @property
    def height(self) -> int:
        return self._shape[0]

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def gray(self) -> np.ndarray:
        """Cached float32 grayscale raster."""
        if self._gray is None:
            self._gray = to_grayscale(self.image)
        return self._gray
