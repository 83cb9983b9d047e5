"""Scene objects: textured triangle meshes with motion models.

The experiment datasets of the paper (DAVIS/KITTI/Xiph + a self-recorded
AR set) are replaced by synthetic 3-D scenes.  Every scene object is a
triangle mesh with a procedural dot-field texture (dense blob texture so
the FAST detector finds plenty of corners on it, like real-world surface
texture) and a motion model giving its object-to-world pose over time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..geometry.se3 import SE3, so3_exp

__all__ = [
    "ProceduralTexture",
    "TriangleMesh",
    "MotionModel",
    "StaticMotion",
    "LinearMotion",
    "WaypointMotion",
    "OrbitMotion",
    "SceneObject",
    "make_box_mesh",
    "make_plane_mesh",
    "make_cylinder_mesh",
]


def _dot_field(
    tile_size: int, num_dots: int, contrast: float, rng: np.random.Generator
) -> np.ndarray:
    """A (tile, tile) float32 tile of ``num_dots`` wrapped discs of
    +-``contrast``, later dots on top.

    Each disc is stamped through its (2r+1)^2 window of offsets.  A cell
    lies within circular distance r of the center exactly when some
    offset (dr, dc) with dr^2 + dc^2 <= r^2 reaches it modulo the tile, so
    this is the cell set of :func:`_dot_field_reference`.
    """
    luminance = np.zeros((tile_size, tile_size), dtype=np.float32)
    for _ in range(num_dots):
        r = rng.integers(0, tile_size)
        c = rng.integers(0, tile_size)
        radius = int(rng.integers(2, 5))
        value = float(rng.choice([-contrast, contrast]))
        rows, cols = _disc_offsets(radius)
        # Wrap-around stamping keeps the tile seamless.
        luminance[(r + rows) % tile_size, (c + cols) % tile_size] = value
    return luminance


@functools.lru_cache(maxsize=None)
def _disc_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) offsets of the integer cells within ``radius`` of 0."""
    span = np.arange(-radius, radius + 1)
    rows, cols = np.nonzero(span[:, None] ** 2 + span[None, :] ** 2 <= radius**2)
    return span[rows], span[cols]


def _dot_field_reference(
    tile_size: int, num_dots: int, contrast: float, rng: np.random.Generator
) -> np.ndarray:
    """Full-tile form of :func:`_dot_field` (equivalence oracle)."""
    luminance = np.zeros((tile_size, tile_size), dtype=np.float32)
    rr, cc = np.mgrid[0:tile_size, 0:tile_size]
    for _ in range(num_dots):
        r = rng.integers(0, tile_size)
        c = rng.integers(0, tile_size)
        radius = rng.integers(2, 5)
        value = float(rng.choice([-contrast, contrast]))
        # Wrap-around stamping keeps the tile seamless.
        dr = np.minimum(np.abs(rr - r), tile_size - np.abs(rr - r))
        dc = np.minimum(np.abs(cc - c), tile_size - np.abs(cc - c))
        luminance[dr**2 + dc**2 <= radius**2] = value
    return luminance


class ProceduralTexture:
    """A tileable dot-field texture, sampled by UV coordinates.

    The tile is generated once per object from its seed: a base color with
    darker/brighter dots and mild value noise.  Dots give the renderer's
    output the corner-rich statistics FAST/BRIEF need.
    """

    def __init__(
        self,
        base_color: tuple[int, int, int],
        seed: int,
        tile_size: int = 96,
        num_dots: int = 70,
        contrast: float = 90.0,
    ):
        self.base_color = np.array(base_color, dtype=np.float32)
        self.tile_size = tile_size
        rng = np.random.default_rng(seed)
        luminance = _dot_field(tile_size, num_dots, contrast, rng)
        luminance += rng.normal(scale=3.0, size=luminance.shape).astype(np.float32)
        self._tile = luminance
        # The clipped RGB texel of every tile cell, row-major, so sampling
        # is one gather of whole texels.
        self._texels = np.clip(
            self.base_color + luminance[..., None], 0.0, 255.0
        ).reshape(-1, 3)

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sample RGB values (float32, 0..255) at UV coordinates (tiles)."""
        size = self.tile_size
        cols = np.floor(np.asarray(u, dtype=np.float32) * size).astype(int)
        rows = np.floor(np.asarray(v, dtype=np.float32) * size).astype(int)
        # ``x - x // size * size`` is ``x % size``; numpy divides by a
        # scalar far faster than it takes a remainder.
        cols -= cols // size * size
        rows -= rows // size * size
        rows *= size
        rows += cols
        return self._texels.take(rows, axis=0)

    def _sample_reference(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-call clip form of :meth:`sample` (equivalence oracle)."""
        u = np.asarray(u, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        cols = (np.floor(u * self.tile_size).astype(int)) % self.tile_size
        rows = (np.floor(v * self.tile_size).astype(int)) % self.tile_size
        luminance = self._tile[rows, cols]
        rgb = self.base_color[None, :] + luminance[..., None]
        return np.clip(rgb, 0.0, 255.0)


@dataclass
class TriangleMesh:
    """Triangle mesh in object coordinates.

    Attributes
    ----------
    vertices:
        (V, 3) float vertex positions.
    faces:
        (F, 3) int vertex indices, counter-clockwise seen from outside.
    face_uvs:
        (F, 3, 2) per-corner UV coordinates used for texturing.
    """

    vertices: np.ndarray
    faces: np.ndarray
    face_uvs: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        self.face_uvs = np.asarray(self.face_uvs, dtype=float)
        if self.face_uvs.shape != (len(self.faces), 3, 2):
            raise ValueError("face_uvs must be (F, 3, 2)")

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def face_areas(self) -> np.ndarray:
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def sample_surface_points(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform-by-area random points on the surface (object frame)."""
        areas = self.face_areas()
        probabilities = areas / max(areas.sum(), 1e-12)
        face_choice = rng.choice(self.num_faces, size=count, p=probabilities)
        tri = self.vertices[self.faces[face_choice]]
        r1 = np.sqrt(rng.uniform(size=count))
        r2 = rng.uniform(size=count)
        a = 1.0 - r1
        b = r1 * (1.0 - r2)
        c = r1 * r2
        return (
            tri[:, 0] * a[:, None] + tri[:, 1] * b[:, None] + tri[:, 2] * c[:, None]
        )


# ----------------------------------------------------------------------
# Motion models: object-to-world pose as a function of time.
# ----------------------------------------------------------------------
class MotionModel:
    """Base class: pose of the object in the world at time ``t`` seconds."""

    def pose_wo(self, t: float) -> SE3:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def is_dynamic(self) -> bool:
        return True


class StaticMotion(MotionModel):
    """A fixed pose — background structure and parked objects."""

    def __init__(self, pose_wo: SE3 | None = None):
        self._pose = pose_wo or SE3.identity()

    def pose_wo(self, t: float) -> SE3:
        return self._pose

    @property
    def is_dynamic(self) -> bool:
        return False


class LinearMotion(MotionModel):
    """Constant-velocity translation with optional constant spin."""

    def __init__(
        self,
        start_pose_wo: SE3,
        velocity: np.ndarray,
        angular_velocity: np.ndarray | None = None,
        start_time: float = 0.0,
    ):
        self.start_pose = start_pose_wo
        self.velocity = np.asarray(velocity, dtype=float).reshape(3)
        self.angular_velocity = (
            np.zeros(3)
            if angular_velocity is None
            else np.asarray(angular_velocity, dtype=float).reshape(3)
        )
        self.start_time = start_time

    def pose_wo(self, t: float) -> SE3:
        dt = t - self.start_time
        rotation = so3_exp(self.angular_velocity * dt) @ self.start_pose.rotation
        translation = self.start_pose.translation + self.velocity * dt
        return SE3(rotation, translation)


class WaypointMotion(MotionModel):
    """Piecewise-linear interpolation through timed waypoints."""

    def __init__(self, times: np.ndarray, positions: np.ndarray, base_rotation: np.ndarray | None = None):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        if len(self.times) != len(self.positions) or len(self.times) < 2:
            raise ValueError("WaypointMotion needs >= 2 timed waypoints")
        self.base_rotation = np.eye(3) if base_rotation is None else base_rotation

    def pose_wo(self, t: float) -> SE3:
        t = float(np.clip(t, self.times[0], self.times[-1]))
        index = int(np.searchsorted(self.times, t, side="right") - 1)
        index = min(index, len(self.times) - 2)
        span = self.times[index + 1] - self.times[index]
        alpha = (t - self.times[index]) / max(span, 1e-12)
        position = (1 - alpha) * self.positions[index] + alpha * self.positions[index + 1]
        return SE3(self.base_rotation, position)


class OrbitMotion(MotionModel):
    """Circular orbit around a center in the XZ plane (e.g. a patrol)."""

    def __init__(self, center: np.ndarray, radius: float, angular_speed: float, phase: float = 0.0):
        self.center = np.asarray(center, dtype=float).reshape(3)
        self.radius = radius
        self.angular_speed = angular_speed
        self.phase = phase

    def pose_wo(self, t: float) -> SE3:
        angle = self.phase + self.angular_speed * t
        offset = np.array(
            [self.radius * np.cos(angle), 0.0, self.radius * np.sin(angle)]
        )
        rotation = so3_exp(np.array([0.0, -angle, 0.0]))
        return SE3(rotation, self.center + offset)


@dataclass
class SceneObject:
    """One object in the world.

    ``instance_id`` 0 is reserved for background structure (floors, walls)
    which is rendered but produces no instance mask.
    """

    instance_id: int
    class_label: str
    mesh: TriangleMesh
    texture: ProceduralTexture
    motion: MotionModel = field(default_factory=StaticMotion)

    @property
    def is_background(self) -> bool:
        return self.instance_id == 0

    @property
    def is_dynamic(self) -> bool:
        return self.motion.is_dynamic

    def pose_wo(self, t: float) -> SE3:
        return self.motion.pose_wo(t)

    def world_vertices(self, t: float) -> np.ndarray:
        return self.pose_wo(t).transform(self.mesh.vertices)


# ----------------------------------------------------------------------
# Mesh primitives
# ----------------------------------------------------------------------
def make_box_mesh(size: tuple[float, float, float]) -> TriangleMesh:
    """Axis-aligned box centered at the origin, UV-mapped per face."""
    sx, sy, sz = (s / 2.0 for s in size)
    vertices = np.array(
        [
            [-sx, -sy, -sz], [sx, -sy, -sz], [sx, sy, -sz], [-sx, sy, -sz],
            [-sx, -sy, sz], [sx, -sy, sz], [sx, sy, sz], [-sx, sy, sz],
        ]
    )
    # Each face as two triangles; outward winding.
    quads = [
        (0, 3, 2, 1),  # -z
        (4, 5, 6, 7),  # +z
        (0, 1, 5, 4),  # -y
        (2, 3, 7, 6),  # +y
        (0, 4, 7, 3),  # -x
        (1, 2, 6, 5),  # +x
    ]
    faces = []
    uvs = []
    quad_uv = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for a, b, c, d in quads:
        faces.append((a, b, c))
        uvs.append(quad_uv[[0, 1, 2]])
        faces.append((a, c, d))
        uvs.append(quad_uv[[0, 2, 3]])
    return TriangleMesh(vertices, np.asarray(faces), np.asarray(uvs))


def make_plane_mesh(
    width: float, depth: float, uv_repeat: float = 4.0
) -> TriangleMesh:
    """Horizontal rectangle in the XZ plane at y=0, facing +y (downward
    camera convention: the floor)."""
    hw, hd = width / 2.0, depth / 2.0
    vertices = np.array(
        [[-hw, 0.0, -hd], [hw, 0.0, -hd], [hw, 0.0, hd], [-hw, 0.0, hd]]
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    quad_uv = np.array(
        [[0.0, 0.0], [uv_repeat, 0.0], [uv_repeat, uv_repeat], [0.0, uv_repeat]]
    )
    uvs = np.stack([quad_uv[[0, 1, 2]], quad_uv[[0, 2, 3]]])
    return TriangleMesh(vertices, faces, uvs)


def make_cylinder_mesh(
    radius: float, height: float, segments: int = 12
) -> TriangleMesh:
    """Vertical cylinder centered at the origin (the oil-field separators
    and tubes of the case study)."""
    angles = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    bottom = np.stack(
        [radius * np.cos(angles), np.full(segments, -height / 2), radius * np.sin(angles)],
        axis=1,
    )
    top = bottom + np.array([0.0, height, 0.0])
    vertices = np.vstack([bottom, top, [[0.0, -height / 2, 0.0]], [[0.0, height / 2, 0.0]]])
    bottom_center = 2 * segments
    top_center = 2 * segments + 1

    faces = []
    uvs = []
    for i in range(segments):
        j = (i + 1) % segments
        u0, u1 = i / segments * 3.0, (i + 1) / segments * 3.0
        # Side quad -> two triangles.
        faces.append((i, j, segments + j))
        uvs.append([[u0, 0.0], [u1, 0.0], [u1, 1.0]])
        faces.append((i, segments + j, segments + i))
        uvs.append([[u0, 0.0], [u1, 1.0], [u0, 1.0]])
        # Caps.
        faces.append((bottom_center, j, i))
        uvs.append([[0.5, 0.5], [u1, 0.0], [u0, 0.0]])
        faces.append((top_center, segments + i, segments + j))
        uvs.append([[0.5, 0.5], [u0, 1.0], [u1, 1.0]])
    return TriangleMesh(vertices, np.asarray(faces), np.asarray(uvs, dtype=float))
