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
            positions[indices] = pose.transform_each(points)
        return positions

    def _site_world_positions_reference(self, time: float) -> np.ndarray:
        """Per-site form of :meth:`site_world_positions` (equivalence oracle)."""
        poses = [scene_object.pose_wo(time) for scene_object in self.objects]
        positions = np.zeros((len(self._sites), 3))
        for i, site in enumerate(self._sites):
            positions[i] = poses[site.owner_index].transform(site.position_object)
        return positions

    def ground_truth_from_render(self, result: RenderResult) -> GroundTruth:
        """Wrap a render as ground truth.  The rasters and masks are the
        render's read-only arrays, shared with every render of the same
        view, so nothing is copied."""
        masks = [
            InstanceMask(
                instance_id=instance_id,
                class_label=self.class_of(instance_id),
                mask=mask,
            )
            for instance_id, mask in result.visible_masks().items()
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
    lazy and keeps no frame: :meth:`frame_at` renders frame ``index`` on
    every call, a pure function of the index, so a repeated call returns
    equal arrays.  The frame loop renders each frame once and hands the
    pair to whatever needs it in that step (the client and the offload
    it sends), so a session holds only its live frame.

    The renderer's memo (see :class:`~repro.synthetic.renderer.VisibilityMemo`)
    holds the current tick's visibility pass.  A run hands one memo to
    every session's renderer, so sessions that see the same view at one
    tick share its read-only depth, labels and masks; each frame still
    shades with its own world's textures.  The frame loop clears the
    memo once the tick's last session has stepped.
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
        self.renderer = Renderer(camera, world.objects)

    def __len__(self) -> int:
        return self.num_frames

    def frame_at(self, index: int):
        """Render frame ``index`` -> (frame, ground truth)."""
        if index < 0 or index >= self.num_frames:
            raise IndexError(f"frame index {index} out of range [0, {self.num_frames})")
        time = index / self.fps
        pose_cw = self.trajectory.pose_cw(time)
        result = self.renderer.render(pose_cw, time, frame_index=index)
        return result.frame, self.world.ground_truth_from_render(result)

    def __iter__(self) -> Iterator[tuple]:
        for index in range(self.num_frames):
            yield self.frame_at(index)
