"""VO frontends: turning a frame into feature observations.

Two interchangeable implementations:

* :class:`FastBriefFrontend` — the real pipeline (FAST + rotated BRIEF on
  the rendered image).  Used in the examples and the frontend tests.
* :class:`OracleFrontend` — the *simulation* frontend used by the large
  experiment grids.  It projects the world's stable feature sites through
  the ground-truth camera, keeps those that survive a depth-buffer
  visibility test, perturbs the pixels with detection noise and emits a
  deterministic per-site descriptor with random bit flips.  Matching,
  triangulation and PnP downstream run unchanged and still have to cope
  with noise, occlusion and wrong matches — but frame processing becomes
  fast and seed-reproducible, which a 6-system x 4-dataset x 3-network
  evaluation grid needs.  (DESIGN.md section 2 records this substitution.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.orb import OrbFeatureExtractor
from ..geometry.camera import PinholeCamera
from ..image.frame import VideoFrame
from ..synthetic.world import GroundTruth, World

__all__ = ["Observation", "FastBriefFrontend", "OracleFrontend"]


@dataclass
class Observation:
    """Features of one frame, frontend-agnostic."""

    pixels: np.ndarray  # (N, 2) float (u, v)
    descriptors: np.ndarray  # (N, 32) uint8

    def __len__(self) -> int:
        return len(self.pixels)

    def subset(self, indices: np.ndarray) -> "Observation":
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        return Observation(self.pixels[indices], self.descriptors[indices])


class FastBriefFrontend:
    """Real feature extraction on the frame image."""

    def __init__(self, max_features: int = 400, threshold: float = 18.0):
        self._extractor = OrbFeatureExtractor(
            threshold=threshold, max_keypoints=max_features
        )

    def observe(self, frame: VideoFrame, truth: GroundTruth | None = None) -> Observation:
        features = self._extractor.extract(frame.gray)
        return Observation(pixels=features.pixels, descriptors=features.descriptors)


class OracleFrontend:
    """Deterministic feature sites projected through ground truth."""

    def __init__(
        self,
        world: World,
        camera: PinholeCamera,
        max_features: int = 400,
        pixel_noise: float = 0.4,
        descriptor_flip_bits: int = 6,
        dropout: float = 0.05,
        depth_tolerance: float = 0.02,
        seed: int = 0,
    ):
        self.world = world
        self.camera = camera
        self.max_features = max_features
        self.pixel_noise = pixel_noise
        self.descriptor_flip_bits = descriptor_flip_bits
        self.dropout = dropout
        self.depth_tolerance = depth_tolerance
        self._rng = np.random.default_rng(seed)
        # Base descriptor per site index, filled the first time a site is
        # observed (seeding a generator per site is the costly part).
        num_sites = len(world.feature_sites)
        self._descriptors = np.zeros((num_sites, 32), dtype=np.uint8)
        self._descriptor_known = np.zeros(num_sites, dtype=bool)
        self._descriptor_cache: dict[int, np.ndarray] = {}  # reference path only

    @staticmethod
    def _site_descriptor(site_id: int) -> np.ndarray:
        site_rng = np.random.default_rng(0x9E3779B9 ^ (site_id * 2654435761 % 2**32))
        return site_rng.integers(0, 256, size=32, dtype=np.uint8)

    def _noisy_descriptors(self, candidate: np.ndarray) -> np.ndarray:
        """Base descriptors of the sites ``candidate`` with random bit flips.

        One ``(n, flip_bits)`` draw consumes the generator exactly like n
        per-site draws of ``flip_bits``.  The flips are applied one column
        at a time, so a bit drawn twice for one site toggles back, just as
        with flips applied one by one.
        """
        unknown = candidate[~self._descriptor_known[candidate]]
        if len(unknown):
            sites = self.world.feature_sites
            for i in unknown.tolist():
                self._descriptors[i] = self._site_descriptor(sites[i].site_id)
            self._descriptor_known[unknown] = True
        descriptors = self._descriptors[candidate]
        flips = self._rng.integers(
            0, 256, size=(len(candidate), self.descriptor_flip_bits)
        )
        rows = np.arange(len(candidate))
        for flip in flips.T:
            descriptors[rows, flip // 8] ^= (1 << (flip % 8)).astype(np.uint8)
        return descriptors

    def observe(self, frame: VideoFrame, truth: GroundTruth) -> Observation:
        positions = self.world.site_world_positions(frame.timestamp)
        pixels, candidate = self._select_sites(positions, truth)
        noisy_pixels = pixels[candidate] + self._rng.normal(
            scale=self.pixel_noise, size=(len(candidate), 2)
        )
        return Observation(
            pixels=noisy_pixels, descriptors=self._noisy_descriptors(candidate)
        )

    def _observe_reference(self, frame: VideoFrame, truth: GroundTruth) -> Observation:
        """Per-site form of :meth:`observe` (equivalence oracle): the same
        pixels, descriptors and generator state afterwards."""
        sites = self.world.feature_sites
        positions = self.world._site_world_positions_reference(frame.timestamp)
        pixels, candidate = self._select_sites(positions, truth)
        noisy_pixels = pixels[candidate] + self._rng.normal(
            scale=self.pixel_noise, size=(len(candidate), 2)
        )
        rows = []
        for i in candidate:
            site_id = sites[i].site_id
            if site_id not in self._descriptor_cache:
                self._descriptor_cache[site_id] = self._site_descriptor(site_id)
            descriptor = self._descriptor_cache[site_id].copy()
            flips = self._rng.integers(0, 256, size=self.descriptor_flip_bits)
            for flip in flips:
                descriptor[flip // 8] ^= np.uint8(1 << (flip % 8))
            rows.append(descriptor)
        descriptors = np.stack(rows) if rows else np.zeros((0, 32), dtype=np.uint8)
        return Observation(pixels=noisy_pixels, descriptors=descriptors)

    def _select_sites(
        self, positions: np.ndarray, truth: GroundTruth
    ) -> tuple[np.ndarray, np.ndarray]:
        """Project the sites and pick the observed ones: (pixels of all
        sites, indices of the observed sites)."""
        pixels, depths, visible = self.camera.visible_world_points(
            truth.pose_cw, positions, margin=-2.0
        )
        # Depth-buffer test: the site must actually be the front surface.
        candidate = np.flatnonzero(visible)
        cols = np.clip(np.round(pixels[candidate, 0]).astype(int), 0, self.camera.width - 1)
        rows = np.clip(np.round(pixels[candidate, 1]).astype(int), 0, self.camera.height - 1)
        buffer_depth = truth.depth[rows, cols]
        unoccluded = depths[candidate] <= buffer_depth * (1.0 + self.depth_tolerance) + 0.05
        candidate = candidate[unoccluded]

        # Random detection dropout, then keep at most max_features.  The
        # cap is applied in site-id order so consecutive frames observe a
        # highly overlapping subset — the way stable FAST corners behave —
        # instead of resampling a nearly disjoint set each frame.
        keep = self._rng.uniform(size=len(candidate)) >= self.dropout
        candidate = candidate[keep]
        if len(candidate) > self.max_features:
            # Deterministic hash order interleaves sites of all objects
            # (plain site-id order would starve late-generated objects).
            priority = (candidate.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(2**32)
            candidate = candidate[np.argsort(priority)][: self.max_features]
        return pixels, candidate
