"""Binary morphology and connected-component labelling in numpy.

The simulated frame loop needs three small raster kernels: erosion and
dilation with the 3x3 cross, and component labelling with 4- or
8-connectivity.  They are built here from padded slices and run-length
rows so that the simulation imports no scipy.  Each returns exactly what
its ``scipy.ndimage`` twin (``binary_erosion``, ``binary_dilation`` with
the default structure and ``border_value=0``, ``label``) returns; the
``_reference`` functions call that twin for the equivalence tests and
the ``image.morphology`` / ``image.label`` micro cells.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binary_erosion", "binary_dilation", "label"]


def _as_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("expected a 2-D mask")
    return mask


def binary_erosion(mask: np.ndarray) -> np.ndarray:
    """Erode a 2-D boolean mask once with the 3x3 cross; pixels outside
    the raster are background."""
    mask = _as_mask(mask)
    # Outside the raster counts as background, so the border ring always
    # erodes and only the interior needs its neighbours.
    out = np.zeros_like(mask)
    out[1:-1, 1:-1] = (
        mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:]
    )
    return out


def binary_dilation(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """Dilate a 2-D boolean mask ``iterations`` times with the 3x3 cross;
    pixels outside the raster are background."""
    mask = _as_mask(mask)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for _ in range(iterations):
        out = mask.copy()
        out[:, 1:] |= mask[:, :-1]
        out[:, :-1] |= mask[:, 1:]
        out[1:] |= mask[:-1]
        out[:-1] |= mask[1:]
        mask = out
    return mask


def label(mask: np.ndarray, connectivity: int = 4) -> tuple[np.ndarray, int]:
    """Connected components of a 2-D boolean mask.

    Returns an int32 label raster (0 = background) and the component
    count.  Components are numbered in raster order of their first pixel,
    as ``scipy.ndimage.label`` numbers them.

    Each row is cut into runs of foreground pixels.  A run joins every run
    of the row above that overlaps it (4-connectivity) or touches it
    diagonally (8-connectivity); the joins are merged by hooking each
    root under the smaller root and jumping pointers until every run
    points at the first run of its component.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("label expects a 2-D mask")
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    height, width = mask.shape
    labels = np.zeros((height, width), dtype=np.int32)
    # A background column on both sides of every row, so no run crosses
    # a row end in the flat index and every row's runs lie in its span.
    stride = width + 2
    padded = np.zeros((height, stride), dtype=np.int8)
    padded[:, 1:-1] = mask
    steps = np.diff(padded.ravel())
    starts = np.flatnonzero(steps == 1) + 1
    ends = np.flatnonzero(steps == -1) + 1
    if len(starts) == 0:
        return labels, 0

    # Runs of the row above that meet run j: end > start_j - stride - reach
    # and start < end_j - stride + reach.  Starts and ends both increase,
    # so they form the contiguous range [first, last).
    reach = 0 if connectivity == 4 else 1
    first = np.searchsorted(ends, starts - stride - reach, side="right")
    last = np.searchsorted(starts, ends - stride + reach, side="left")
    counts = np.maximum(last - first, 0)
    total = int(counts.sum())
    parent = np.arange(len(starts))
    if total:
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        above = np.repeat(first, counts) + offsets
        below = np.repeat(parent, counts)
        while True:
            root_above, root_below = parent[above], parent[below]
            apart = root_above != root_below
            if not apart.any():
                break
            above, below = above[apart], below[apart]
            root_above, root_below = root_above[apart], root_below[apart]
            np.minimum.at(
                parent,
                np.maximum(root_above, root_below),
                np.minimum(root_above, root_below),
            )
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand

    is_root = parent == np.arange(len(parent))
    number = np.cumsum(is_root, dtype=np.int32)
    labels.ravel()[np.flatnonzero(mask)] = np.repeat(number[parent], ends - starts)
    return labels, int(number[-1])


# ----------------------------------------------------------------------
# scipy twins (equivalence tests and micro cells only)
# ----------------------------------------------------------------------
def _binary_erosion_reference(mask):
    from scipy import ndimage

    return ndimage.binary_erosion(mask, border_value=0)


def _binary_dilation_reference(mask, iterations=1):
    from scipy import ndimage

    return ndimage.binary_dilation(mask, iterations=iterations, border_value=0)


def _label_reference(mask, connectivity=4):
    from scipy import ndimage

    structure = np.ones((3, 3), dtype=bool) if connectivity == 8 else None
    labels, count = ndimage.label(mask, structure=structure)
    return labels, int(count)
