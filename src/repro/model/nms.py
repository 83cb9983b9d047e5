"""Non-maximum suppression: classic greedy NMS and YOLACT's Fast NMS.

Fast NMS (referenced by the paper for RoIs in *unknown* image areas) does
the whole suppression with one upper-triangular IoU matrix instead of a
sequential loop — slightly more aggressive but embarrassingly parallel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["box_iou_matrix", "nms", "fast_nms"]

# Rows of the IoU matrix fast_nms builds at a time.
FAST_NMS_BLOCK_ROWS = 64


def box_iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box sets, shape (len(a), len(b))."""
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    x0 = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    y0 = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    x1 = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    y1 = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])
    intersection = np.clip(x1 - x0, 0, None) * np.clip(y1 - y0, 0, None)
    area_a = np.clip(boxes_a[:, 2] - boxes_a[:, 0], 0, None) * np.clip(
        boxes_a[:, 3] - boxes_a[:, 1], 0, None
    )
    area_b = np.clip(boxes_b[:, 2] - boxes_b[:, 0], 0, None) * np.clip(
        boxes_b[:, 3] - boxes_b[:, 1], 0, None
    )
    union = area_a[:, None] + area_b[None, :] - intersection
    return np.where(union > 0, intersection / np.maximum(union, 1e-12), 0.0)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy NMS; returns kept indices sorted by descending score."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores)
    keep: list[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    iou = box_iou_matrix(boxes, boxes)
    for index in order:
        if suppressed[index]:
            continue
        keep.append(int(index))
        suppressed |= iou[index] > iou_threshold
        suppressed[index] = True
    return np.asarray(keep, dtype=int)


def fast_nms(
    boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5
) -> np.ndarray:
    """YOLACT's Fast NMS: suppress any box overlapped by a higher-scoring
    one, read off the upper-triangular IoU matrix of the score-sorted
    boxes.

    The matrix is built :data:`FAST_NMS_BLOCK_ROWS` rows at a time and
    each block's column maxima are folded into ``max_overlap``, so the
    temporaries stay ``block x N`` instead of ``N x N``; ``max`` does not
    round, so the kept set equals the whole-matrix one
    (:func:`_fast_nms_reference`)."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores)
    sorted_boxes = boxes[order]
    max_overlap = np.zeros(len(boxes))
    for start in range(0, len(boxes), FAST_NMS_BLOCK_ROWS):
        block = box_iou_matrix(sorted_boxes[start : start + FAST_NMS_BLOCK_ROWS], sorted_boxes)
        # Row start + i keeps only the columns after it: j - i >= start + 1.
        np.maximum(max_overlap, np.triu(block, k=start + 1).max(axis=0), out=max_overlap)
    return order[max_overlap <= iou_threshold]


def _fast_nms_reference(
    boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5
) -> np.ndarray:
    """Whole-matrix Fast NMS — reference for :func:`fast_nms`
    (equivalence tests; ``model.fast_nms`` micro cell)."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    if len(boxes) == 0:
        return np.zeros(0, dtype=int)
    order = np.argsort(-scores)
    sorted_boxes = boxes[order]
    iou = box_iou_matrix(sorted_boxes, sorted_boxes)
    upper = np.triu(iou, k=1)
    max_overlap = upper.max(axis=0) if len(boxes) > 1 else np.zeros(len(boxes))
    keep_sorted = max_overlap <= iou_threshold
    return order[keep_sorted]
