"""Contour extraction and rasterization.

edgeIS's mask transfer hinges on the observation that "the shape of a mask
is determined by its contour" (Section III-C): it extracts the contour of
the source mask with OpenCV's ``findContours``, reprojects the contour
pixels and re-rasterizes.  This module provides both halves from scratch:

* :func:`find_contours` — Moore-neighbour boundary tracing with Jacob's
  stopping criterion, returning outer contours of each connected component
  (the ``findContours`` equivalent).
* :func:`fill_contour` — scanline polygon fill turning a traced (or
  reprojected) contour back into a mask.
"""

from __future__ import annotations

import numpy as np

from .morphology import binary_erosion, label

__all__ = [
    "find_contours",
    "largest_contour",
    "fill_contour",
    "contour_to_mask",
    "mask_boundary",
    "resample_contour",
]

# Moore neighbourhood in clockwise order starting from west.
_MOORE = [(0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1)]


def _trace_boundary(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Moore-neighbour tracing of one outer boundary, clockwise."""
    rows, cols = mask.shape
    boundary = [start]
    # Backtrack starts pointing west of the start pixel (scan order found it
    # entering from the left).
    backtrack_dir = 0
    current = start
    first_move: tuple[int, int] | None = None
    max_steps = 4 * mask.size  # hard stop for pathological inputs
    for _ in range(max_steps):
        found = False
        for step in range(8):
            direction = (backtrack_dir + step) % 8
            dr, dc = _MOORE[direction]
            r, c = current[0] + dr, current[1] + dc
            if 0 <= r < rows and 0 <= c < cols and mask[r, c]:
                # Jacob's criterion: stop on re-entering the start pixel
                # with the same move as the first one.
                move = (r, c)
                if current == start and first_move is not None and move == first_move:
                    return np.asarray(boundary)
                if first_move is None:
                    first_move = move
                boundary.append(move)
                current = move
                # New backtrack: the neighbour we examined just before the
                # hit, i.e. rotate back by one.
                backtrack_dir = (direction + 5) % 8
                found = True
                break
        if not found:
            # Isolated pixel.
            return np.asarray(boundary)
    return np.asarray(boundary)  # pragma: no cover - loop guard


def find_contours(mask: np.ndarray, min_length: int = 1) -> list[np.ndarray]:
    """Outer contours of every connected component of a boolean mask.

    Returns a list of ``(N, 2)`` integer arrays of (row, col) boundary
    pixels, one per component, ordered clockwise.  Components smaller than
    ``min_length`` boundary pixels are dropped.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("find_contours expects a 2-D mask")
    # 8-connectivity, matching OpenCV's findContours component notion.
    labeled, count = label(mask, connectivity=8)
    contours = []
    for component in range(1, count + 1):
        component_mask = labeled == component
        rows = np.flatnonzero(component_mask.any(axis=1))
        first_row = rows[0]
        first_col = int(np.argmax(component_mask[first_row]))
        contour = _trace_boundary(component_mask, (int(first_row), first_col))
        if len(contour) >= min_length:
            contours.append(contour)
    return contours


def largest_contour(mask: np.ndarray) -> np.ndarray | None:
    """The contour of the largest connected component, or None if empty."""
    contours = find_contours(mask)
    if not contours:
        return None
    return max(contours, key=len)


def fill_contour(contour: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Scanline-fill a closed contour of (row, col) points into a mask.

    The contour need not be integer valued — reprojected contours land on
    sub-pixel positions.  Uses the even-odd rule with half-pixel sampling,
    then unions the contour pixels themselves so thin shapes survive.

    All scanlines are filled in one pass: the edge from vertex i to
    vertex i+1 crosses integer row r exactly when
    ``ceil(min y) <= r <= ceil(max y) - 1`` (the half-open rule of
    :func:`_fill_contour_reference`), so every (edge, row) crossing is
    enumerated at once, sorted by (row, x) and paired, and the pixels of
    all spans are set with one flat index array.
    """
    contour = np.asarray(contour, dtype=float)
    out = np.zeros(shape, dtype=bool)
    if len(contour) == 0:
        return out
    if len(contour) < 3:
        _stamp_points(out, contour)
        return out

    height, width = shape
    ys = contour[:, 0]
    xs = contour[:, 1]
    y_next = np.roll(ys, -1)
    x_next = np.roll(xs, -1)
    # Crossing rows of each edge, clipped to the image in float so that
    # far off-image vertices cannot overflow the integer conversion.
    first = np.clip(np.ceil(np.minimum(ys, y_next)), 0, height)
    last = np.clip(np.ceil(np.maximum(ys, y_next)) - 1, -1, height - 1)
    counts = np.maximum(last - first + 1, 0).astype(np.int64)
    total = int(counts.sum())
    if total:
        edges = np.repeat(np.arange(len(contour)), counts)
        starts = np.cumsum(counts) - counts
        rows = first.astype(np.int64)[edges] + (np.arange(total) - starts[edges])
        y0 = ys[edges]
        x0 = xs[edges]
        t = (rows - y0) / (y_next[edges] - y0)
        x_cross = x0 + t * (x_next[edges] - x0)
        # Every row holds an even number of crossings (the polygon is
        # closed), so pairing consecutive sorted crossings pairs them
        # within each row.
        order = np.lexsort((x_cross, rows))
        span_rows = rows[order][0::2]
        x_sorted = x_cross[order]
        left = np.clip(np.ceil(x_sorted[0::2]), 0, width).astype(np.int64)
        right = np.clip(np.floor(x_sorted[1::2]), -1, width - 1).astype(np.int64)
        drawn = right >= left
        if drawn.any():
            # Every pixel of every span, as flat indices: one repeat of the
            # span starts plus a running offset (touching spans of a row
            # may share a pixel; setting it twice is harmless).
            lengths = right[drawn] - left[drawn] + 1
            firsts = span_rows[drawn] * width + left[drawn]
            shifts = np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)
            out.reshape(-1)[shifts + np.arange(int(lengths.sum()))] = True
    _stamp_points(out, contour)
    return out


def _fill_contour_reference(contour: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Per-scanline loop form of :func:`fill_contour` (equivalence oracle;
    ``transfer.fill_contour`` micro cell)."""
    contour = np.asarray(contour, dtype=float)
    out = np.zeros(shape, dtype=bool)
    if len(contour) == 0:
        return out
    if len(contour) < 3:
        _stamp_points(out, contour)
        return out

    ys = contour[:, 0]
    xs = contour[:, 1]
    y_min = max(int(np.floor(ys.min())), 0)
    y_max = min(int(np.ceil(ys.max())), shape[0] - 1)

    x_start = np.roll(xs, -1)
    y_start = np.roll(ys, -1)
    for row in range(y_min, y_max + 1):
        sample_y = row + 0.0  # sample at pixel centers in row coordinates
        # Edges crossing this scanline (half-open to avoid double counts).
        crosses = (ys <= sample_y) != (y_start <= sample_y)
        if not crosses.any():
            continue
        denom = y_start[crosses] - ys[crosses]
        t = (sample_y - ys[crosses]) / denom
        x_cross = xs[crosses] + t * (x_start[crosses] - xs[crosses])
        x_cross.sort()
        for i in range(0, len(x_cross) - 1, 2):
            left = max(int(np.ceil(x_cross[i])), 0)
            right = min(int(np.floor(x_cross[i + 1])), shape[1] - 1)
            if right >= left:
                out[row, left : right + 1] = True
    _stamp_points(out, contour)
    return out


def _stamp_points(mask: np.ndarray, points: np.ndarray) -> None:
    """Mark the (rounded, in-bounds) points themselves as foreground."""
    rounded = np.round(points).astype(int)
    keep = (
        (rounded[:, 0] >= 0)
        & (rounded[:, 0] < mask.shape[0])
        & (rounded[:, 1] >= 0)
        & (rounded[:, 1] < mask.shape[1])
    )
    rounded = rounded[keep]
    mask[rounded[:, 0], rounded[:, 1]] = True


def contour_to_mask(contour: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Alias of :func:`fill_contour` matching the paper's vocabulary."""
    return fill_contour(contour, shape)


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Boolean raster of boundary pixels (foreground with a background
    4-neighbour), the 'pixels on the contour' the paper treats as the most
    representative features of an object's shape."""
    mask = np.asarray(mask, dtype=bool)
    return mask & ~binary_erosion(mask)


def resample_contour(contour: np.ndarray, num_points: int) -> np.ndarray:
    """Resample a closed contour to ``num_points`` by arc length.

    Used to bound the per-frame cost of contour reprojection regardless of
    object size.
    """
    contour = np.asarray(contour, dtype=float)
    if len(contour) == 0 or num_points <= 0:
        return np.zeros((0, 2))
    if len(contour) <= 2:
        reps = int(np.ceil(num_points / len(contour)))
        return np.tile(contour, (reps, 1))[:num_points]
    closed = np.vstack([contour, contour[:1]])
    deltas = np.diff(closed, axis=0)
    seg_lengths = np.linalg.norm(deltas, axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    total = cumulative[-1]
    if total < 1e-12:
        return np.tile(contour[:1], (num_points, 1))
    targets = np.linspace(0.0, total, num_points, endpoint=False)
    indices = np.searchsorted(cumulative, targets, side="right") - 1
    indices = np.clip(indices, 0, len(seg_lengths) - 1)
    local = (targets - cumulative[indices]) / np.maximum(seg_lengths[indices], 1e-12)
    return closed[indices] + deltas[indices] * local[:, None]
