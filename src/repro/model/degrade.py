"""Mask quality simulation.

The simulated models do not run a neural network; they take the renderer's
ground-truth mask and *degrade* it to the quality the corresponding real
model achieves (paper Fig. 2b: Mask R-CNN ~0.92+ IoU per mask, YOLACT
~0.75).  Degradation composes a sub-pixel-ish shift with boundary
morphology until the target IoU is reached, which reproduces the two error
modes of real mask heads: localization offset and boundary sloppiness.
"""

from __future__ import annotations

import numpy as np

from ..image.masks import mask_iou
from ..image.morphology import binary_dilation, binary_erosion

__all__ = ["degrade_mask_to_iou", "sample_target_iou"]


def sample_target_iou(mean: float, std: float, rng: np.random.Generator) -> float:
    """Draw a per-instance target IoU, clipped to a sane range."""
    return float(np.clip(rng.normal(mean, std), 0.35, 0.995))


def _shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = mask[ys_src, xs_src]
    return out


def degrade_mask_to_iou(
    mask: np.ndarray, target_iou: float, rng: np.random.Generator
) -> np.ndarray:
    """Return a degraded copy of ``mask`` whose IoU with it is close to
    (and not much above) ``target_iou``.

    Alternates a growing shift with erosion/dilation; stops as soon as the
    measured IoU falls to the target.  For empty masks returns the input.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or target_iou >= 0.995:
        return mask.copy()

    direction = rng.uniform(0, 2 * np.pi)
    grow = bool(rng.uniform() < 0.5)
    degraded = mask.copy()
    for step in range(1, 24):
        # Alternate: shift on odd steps, morphology on even steps.
        if step % 2 == 1:
            magnitude = (step + 1) // 2
            dy = int(round(np.sin(direction) * magnitude))
            dx = int(round(np.cos(direction) * magnitude))
            candidate = _shift_mask(mask, dy, dx)
        else:
            operator = binary_dilation if grow else binary_erosion
            candidate = operator(degraded)
            if not candidate.any():
                candidate = degraded  # erosion ate everything; keep
        if mask_iou(mask, candidate) <= target_iou:
            return candidate
        degraded = candidate
    return degraded
