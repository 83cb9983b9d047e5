"""Worlds: object collections, oracle feature sites and video sequences.

Coordinate convention (matches the CV camera frame): **y points down**.
The floor lies at y = 0 and things above the floor have negative y; an
eye-level camera sits at y ~= -1.6.

Besides rendering, the world exposes *feature sites* — stable, textured
3-D points on object surfaces with per-site identities.  They power the
deterministic ``oracle`` feature mode of the VO frontend (see
``repro.vo.frontend``): instead of re-detecting FAST corners per frame,
the extractor projects the sites visible in the depth buffer and emits
descriptors derived from the site identity plus bit noise.  This keeps
the full matching/triangulation/PnP machinery honest while making the
large experiment grids fast and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..geometry.camera import PinholeCamera
from ..geometry.se3 import SE3
from ..image.masks import InstanceMask
from .objects import SceneObject
from .renderer import Renderer, RenderResult
from .trajectory import CameraTrajectory

__all__ = ["FeatureSite", "World", "GroundTruth", "SyntheticVideo"]


@dataclass(frozen=True)
class FeatureSite:
    """A stable surface point with identity, for oracle feature extraction."""

    site_id: int
    instance_id: int  # 0 = background structure
    owner_index: int  # index into World.objects of the owning object
    position_object: np.ndarray  # in the owning object's frame


@dataclass
class GroundTruth:
    """Per-frame ground truth emitted alongside each rendered frame."""

    label_map: np.ndarray
    masks: list[InstanceMask]
    pose_cw: SE3
    object_poses_wo: dict[int, SE3]
    depth: np.ndarray

    def mask_for(self, instance_id: int) -> InstanceMask | None:
        for mask in self.masks:
            if mask.instance_id == instance_id:
                return mask
        return None


class World:
    """A scene: background structure plus labeled object instances."""

    def __init__(
        self,
        objects: list[SceneObject],
        sites_per_sqm: float = 14.0,
        max_sites_per_object: int = 260,
        seed: int = 0,
    ):
        ids = [o.instance_id for o in objects if not o.is_background]
        if len(ids) != len(set(ids)):
            raise ValueError("instance ids must be unique")
        self.objects = objects
        self._by_id = {o.instance_id: o for o in objects if not o.is_background}
        self._sites = self._generate_sites(sites_per_sqm, max_sites_per_object, seed)
        # Sites grouped by owning object, so positions move one object
        # (one pose) at a time instead of one site at a time.
        owners = np.array([site.owner_index for site in self._sites], dtype=int)
        self._site_groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        for owner_index in np.unique(owners).tolist():
            indices = np.flatnonzero(owners == owner_index)
            points = np.array([self._sites[i].position_object for i in indices])
            self._site_groups.append((owner_index, indices, points))

    # ------------------------------------------------------------------
    def _generate_sites(
        self, sites_per_sqm: float, max_sites_per_object: int, seed: int
    ) -> list[FeatureSite]:
        rng = np.random.default_rng(seed)
        sites: list[FeatureSite] = []
        next_id = 0
        for owner_index, scene_object in enumerate(self.objects):
            area = float(scene_object.mesh.face_areas().sum())
            count = int(np.clip(area * sites_per_sqm, 8, max_sites_per_object))
            points = scene_object.mesh.sample_surface_points(count, rng)
            for point in points:
                sites.append(
                    FeatureSite(
                        site_id=next_id,
                        instance_id=scene_object.instance_id,
                        owner_index=owner_index,
                        position_object=point,
                    )
                )
                next_id += 1
        return sites

    @property
    def feature_sites(self) -> list[FeatureSite]:
        return self._sites

    @property
    def instance_ids(self) -> list[int]:
        return sorted(self._by_id)

    @property
    def dynamic_instance_ids(self) -> list[int]:
        return sorted(i for i, o in self._by_id.items() if o.is_dynamic)

    def object_by_id(self, instance_id: int) -> SceneObject:
        return self._by_id[instance_id]

    def class_of(self, instance_id: int) -> str:
        return self._by_id[instance_id].class_label

    def site_world_positions(self, time: float) -> np.ndarray:
        """World positions of all feature sites at time ``t`` (moving
        objects carry their sites along)."""
        positions = np.zeros((len(self._sites), 3))
        for owner_index, indices, points in self._site_groups:
            pose = self.objects[owner_index].pose_wo(time)
            # A stacked (3, 3) @ (3, 1) matmul runs the same matrix-vector
            # kernel per point as ``pose.transform(point)``, bit for bit; a
            # plain (N, 3) @ (3, 3) product may round differently.
            rotated = np.matmul(pose.rotation, points[:, :, None])[:, :, 0]
            positions[indices] = rotated + pose.translation
        return positions

    def _site_world_positions_reference(self, time: float) -> np.ndarray:
        """Per-site form of :meth:`site_world_positions` (equivalence oracle)."""
        poses = [scene_object.pose_wo(time) for scene_object in self.objects]
        positions = np.zeros((len(self._sites), 3))
        for i, site in enumerate(self._sites):
            positions[i] = poses[site.owner_index].transform(site.position_object)
        return positions

    def ground_truth_from_render(self, result: RenderResult) -> GroundTruth:
        masks = [
            InstanceMask(
                instance_id=instance_id,
                class_label=self.class_of(instance_id),
                mask=result.instance_mask(instance_id),
            )
            for instance_id in result.visible_instance_ids
        ]
        return GroundTruth(
            label_map=result.label_map,
            masks=masks,
            pose_cw=result.pose_cw,
            object_poses_wo=result.object_poses_wo,
            depth=result.depth,
        )


class SyntheticVideo:
    """A 30 fps video stream rendered from a world and a trajectory.

    Iterating yields ``(VideoFrame, GroundTruth)`` pairs.  Rendering is
    lazy and cached per index so that a mobile client and an "offline
    ground truth" consumer can both walk the same sequence cheaply.
    """

    def __init__(
        self,
        world: World,
        trajectory: CameraTrajectory,
        camera: PinholeCamera,
        num_frames: int,
        fps: float = 30.0,
        name: str = "synthetic",
    ):
        self.world = world
        self.trajectory = trajectory
        self.camera = camera
        self.num_frames = num_frames
        self.fps = fps
        self.name = name
        self._renderer = Renderer(camera, world.objects)
        # Insertion-ordered: the first key is the oldest frame (FIFO).
        self._cache: dict[int, tuple] = {}
        self._cache_capacity = 48

    def __len__(self) -> int:
        return self.num_frames

    def frame_at(self, index: int):
        """Render (or fetch cached) frame ``index`` -> (frame, ground truth)."""
        if index < 0 or index >= self.num_frames:
            raise IndexError(f"frame index {index} out of range [0, {self.num_frames})")
        if index in self._cache:
            return self._cache[index]
        time = index / self.fps
        pose_cw = self.trajectory.pose_cw(time)
        result = self._renderer.render(pose_cw, time, frame_index=index)
        truth = self.world.ground_truth_from_render(result)
        value = (result.frame, truth)
        self._cache[index] = value
        if len(self._cache) > self._cache_capacity:
            del self._cache[next(iter(self._cache))]
        return value

    def __iter__(self) -> Iterator[tuple]:
        for index in range(self.num_frames):
            yield self.frame_at(index)
