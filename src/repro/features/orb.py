"""The full ORB-like feature pipeline plus the paper's feature selection.

Section III-A describes a selection pass on top of raw features:

* background features are dropped when "too blurred or too close to
  neighboring ones";
* features near the edge of an instance mask are always preserved
  ("pixels on the contour are more representative for the object's
  shape");
* features inside a mask still face the blurriness check.

:class:`OrbFeatureExtractor` implements detection + description, and
:func:`select_features` implements that mask-aware filtering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..image.contours import mask_boundary
from ..image.frame import gaussian_blur
from ..image.morphology import binary_dilation
from .brief import BriefDescriptorExtractor
from .fast import Keypoint, fast_corners, grid_select

__all__ = ["FeatureSet", "OrbFeatureExtractor", "select_features", "local_sharpness"]


@dataclass
class FeatureSet:
    """Keypoints + descriptors of one frame.

    ``pixels`` is the (N, 2) array of (u, v) coordinates — the layout every
    geometry routine consumes — kept in sync with ``keypoints``.
    """

    keypoints: list[Keypoint]
    descriptors: np.ndarray  # (N, 32) uint8

    @property
    def pixels(self) -> np.ndarray:
        if not self.keypoints:
            return np.zeros((0, 2))
        return np.array([[k.col, k.row] for k in self.keypoints], dtype=float)

    def __len__(self) -> int:
        return len(self.keypoints)

    def subset(self, indices: np.ndarray) -> "FeatureSet":
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        return FeatureSet(
            keypoints=[self.keypoints[i] for i in indices],
            descriptors=self.descriptors[indices],
        )


class OrbFeatureExtractor:
    """FAST-9 detection + grid selection + rotated-BRIEF description.

    With ``num_levels > 1`` detection runs over an image pyramid
    (``scale_factor`` between levels, ORB's scale invariance): keypoints
    are described at their native level and reported in full-resolution
    coordinates with their ``octave`` recorded.
    """

    def __init__(
        self,
        threshold: float = 20.0,
        max_keypoints: int = 500,
        grid_cell: int = 32,
        per_cell: int = 4,
        blur_sigma: float = 2.0,
        num_levels: int = 1,
        scale_factor: float = 1.3,
    ):
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        self.threshold = threshold
        self.max_keypoints = max_keypoints
        self.grid_cell = grid_cell
        self.per_cell = per_cell
        self.num_levels = num_levels
        self.scale_factor = scale_factor
        self._brief = BriefDescriptorExtractor(blur_sigma=blur_sigma)

    def _extract_level(self, gray: np.ndarray, budget: int):
        keypoints = fast_corners(gray, threshold=self.threshold, max_keypoints=budget * 3)
        keypoints = grid_select(
            keypoints, gray.shape, cell=self.grid_cell, per_cell=self.per_cell
        )[:budget]
        return self._brief.compute(gray, keypoints)

    def extract(self, gray: np.ndarray) -> FeatureSet:
        from ..image.frame import resize_bilinear

        gray = np.asarray(gray, dtype=np.float32)
        if self.num_levels == 1:
            kept, descriptors = self._extract_level(gray, self.max_keypoints)
            return FeatureSet(keypoints=kept, descriptors=descriptors)

        all_keypoints: list[Keypoint] = []
        descriptor_rows: list[np.ndarray] = []
        level_image = gray
        scale = 1.0
        # Budget split roughly geometrically across levels, as in ORB.
        weights = np.array([self.scale_factor ** -i for i in range(self.num_levels)])
        budgets = np.maximum(
            (self.max_keypoints * weights / weights.sum()).astype(int), 8
        )
        for level in range(self.num_levels):
            kept, descriptors = self._extract_level(level_image, int(budgets[level]))
            for keypoint, descriptor in zip(kept, descriptors):
                all_keypoints.append(
                    Keypoint(
                        row=keypoint.row / scale,
                        col=keypoint.col / scale,
                        score=keypoint.score,
                        angle=keypoint.angle,
                        octave=level,
                    )
                )
                descriptor_rows.append(descriptor)
            if level + 1 < self.num_levels:
                scale /= self.scale_factor
                level_image = resize_bilinear(gray, scale)
                if min(level_image.shape) < 40:
                    break

        if not all_keypoints:
            return FeatureSet(keypoints=[], descriptors=np.zeros((0, 32), np.uint8))
        order = np.argsort([-k.score for k in all_keypoints])[: self.max_keypoints]
        return FeatureSet(
            keypoints=[all_keypoints[i] for i in order],
            descriptors=np.stack([descriptor_rows[i] for i in order]),
        )


def local_sharpness(gray: np.ndarray, window: int = 7) -> np.ndarray:
    """Laplacian-energy sharpness map; low values mean blurred texture."""
    from scipy import ndimage

    gray = np.asarray(gray, dtype=np.float32)
    laplacian = ndimage.laplace(gaussian_blur(gray, 0.8))
    return ndimage.uniform_filter(np.abs(laplacian), size=window)


def select_features(
    feature_set: FeatureSet,
    gray: np.ndarray,
    instance_masks: list[np.ndarray] | None = None,
    blur_threshold: float = 1.0,
    min_separation: float = 4.0,
    contour_band: int = 2,
) -> tuple[FeatureSet, np.ndarray]:
    """The paper's feature selection (Section III-A).

    Returns the filtered :class:`FeatureSet` and a parallel int array of
    instance labels (0 = background, i+1 = index into ``instance_masks``).
    """
    if len(feature_set) == 0:
        return feature_set, np.zeros(0, dtype=int)
    gray = np.asarray(gray, dtype=np.float32)
    sharpness = local_sharpness(gray)
    pixels = feature_set.pixels
    rows = np.clip(np.round(pixels[:, 1]).astype(int), 0, gray.shape[0] - 1)
    cols = np.clip(np.round(pixels[:, 0]).astype(int), 0, gray.shape[1] - 1)

    instance_masks = instance_masks or []
    labels = np.zeros(len(feature_set), dtype=int)
    near_contour = np.zeros(len(feature_set), dtype=bool)
    for mask_index, mask in enumerate(instance_masks):
        mask = np.asarray(mask, dtype=bool)
        inside = mask[rows, cols]
        labels[inside] = mask_index + 1
        if inside.any():
            boundary = mask_boundary(mask)
            if contour_band > 1:
                boundary = binary_dilation(boundary, iterations=contour_band - 1)
            near_contour |= inside & boundary[rows, cols]

    sharp_enough = sharpness[rows, cols] >= blur_threshold
    keep = sharp_enough | near_contour  # contour features always survive

    # Proximity pruning on background features only, strongest first.
    order = np.argsort([-k.score for k in feature_set.keypoints])
    occupied: list[np.ndarray] = []
    min_sep_sq = min_separation * min_separation
    for idx in order:
        if not keep[idx] or labels[idx] != 0:
            continue
        position = pixels[idx]
        crowded = any(
            float(np.sum((position - other) ** 2)) < min_sep_sq for other in occupied
        )
        if crowded:
            keep[idx] = False
        else:
            occupied.append(position)

    kept_indices = np.flatnonzero(keep)
    return feature_set.subset(kept_indices), labels[kept_indices]
