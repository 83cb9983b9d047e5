"""Z-buffer software renderer.

Produces, for each requested camera pose and time, the three rasters the
rest of the system consumes:

* an RGB frame (the "camera image"),
* a pixel-perfect instance-id map (the ground-truth segmentation the
  paper's IoU metric needs),
* a depth map (used for oracle feature visibility checks).

Triangle rasterization uses perspective-correct barycentric interpolation
and Sutherland-Hodgman clipping against the near plane, all vectorized per
triangle with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.camera import PinholeCamera
from ..geometry.se3 import SE3
from ..image.frame import VideoFrame
from .objects import SceneObject

__all__ = ["RenderResult", "Renderer"]

_NEAR_PLANE = 0.05
# One float32 RGB pixel as a single 12-byte item: a masked write of these
# moves one item per pixel instead of three strided floats.
_RGB_ITEM = np.dtype((np.void, 12))


@dataclass
class RenderResult:
    """Everything the simulator knows about one rendered frame."""

    frame: VideoFrame
    label_map: np.ndarray  # (H, W) int32 instance ids, 0 = background
    depth: np.ndarray  # (H, W) float32, inf where nothing was drawn
    pose_cw: SE3
    object_poses_wo: dict[int, SE3]
    time: float

    def instance_mask(self, instance_id: int) -> np.ndarray:
        return self.label_map == instance_id

    @property
    def visible_instance_ids(self) -> list[int]:
        """Sorted ids of the instances with at least one pixel."""
        counts = np.bincount(self.label_map.ravel())
        return (np.flatnonzero(counts[1:]) + 1).tolist()


def _clip_polygon_near(
    points_camera: np.ndarray, uvs: np.ndarray, near: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of a polygon against the z=near plane.

    Interpolates UVs along clipped edges.  Returns possibly-empty arrays.
    """
    output_points: list[np.ndarray] = []
    output_uvs: list[np.ndarray] = []
    count = len(points_camera)
    for i in range(count):
        current, current_uv = points_camera[i], uvs[i]
        nxt, next_uv = points_camera[(i + 1) % count], uvs[(i + 1) % count]
        current_in = current[2] >= near
        next_in = nxt[2] >= near
        if current_in:
            output_points.append(current)
            output_uvs.append(current_uv)
        if current_in != next_in:
            t = (near - current[2]) / (nxt[2] - current[2])
            output_points.append(current + t * (nxt - current))
            output_uvs.append(current_uv + t * (next_uv - current_uv))
    if not output_points:
        return np.zeros((0, 3)), np.zeros((0, 2))
    return np.asarray(output_points), np.asarray(output_uvs)


def _face_shades(triangles: np.ndarray) -> np.ndarray:
    """Lambert-ish shade per (3, 3) camera-frame triangle in ``triangles``.

    The cross product is ``np.cross``'s own formula, and the stacked
    (1, 3) @ (3, 1) matmul is the dot product ``np.linalg.norm`` takes of
    one vector, so each shade is bit-identical to the per-face formula of
    :meth:`Renderer._draw_object_reference`.
    """
    a = triangles[:, 1] - triangles[:, 0]
    b = triangles[:, 2] - triangles[:, 0]
    normals = np.empty_like(a)
    normals[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    normals[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    normals[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    norms = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None])[:, 0, 0])
    return 0.65 + 0.35 * np.abs(normals[:, 2]) / np.maximum(norms, 1e-12)


class Renderer:
    """Renders a list of :class:`SceneObject` through a pinhole camera."""

    def __init__(self, camera: PinholeCamera, objects: list[SceneObject]):
        self.camera = camera
        self.objects = objects
        # Pixel-center coordinates: a row of x and a column of y.
        self._centers_x = np.arange(camera.width) + 0.5
        self._centers_y = (np.arange(camera.height) + 0.5)[:, None]

    def render(self, pose_cw: SE3, time: float, frame_index: int = 0) -> RenderResult:
        return self._render(pose_cw, time, frame_index, self._draw_object)

    def render_reference(
        self, pose_cw: SE3, time: float, frame_index: int = 0
    ) -> RenderResult:
        """Per-face, full-bounding-box form of :meth:`render` (equivalence
        oracle): the same three rasters, bit for bit."""
        return self._render(pose_cw, time, frame_index, self._draw_object_reference)

    def _render(self, pose_cw: SE3, time: float, frame_index: int, draw_object) -> RenderResult:
        height, width = self.camera.height, self.camera.width
        color = np.full((height, width, 3), 110.0, dtype=np.float32)  # sky/haze
        depth = np.full((height, width), np.inf, dtype=np.float32)
        label_map = np.zeros((height, width), dtype=np.int32)

        object_poses: dict[int, SE3] = {}
        for scene_object in self.objects:
            # Time-varying textures (e.g. the chaos lighting shift) get
            # the frame time before any of their texels are sampled.
            set_time = getattr(scene_object.texture, "set_time", None)
            if set_time is not None:
                set_time(time)
        for scene_object in self.objects:
            pose_wo = scene_object.pose_wo(time)
            if not scene_object.is_background:
                object_poses[scene_object.instance_id] = pose_wo
            pose_co = pose_cw @ pose_wo  # object -> camera
            draw_object(scene_object, pose_co, color, depth, label_map)

        image = np.clip(color, 0.0, 255.0).astype(np.uint8)
        return RenderResult(
            frame=VideoFrame(index=frame_index, timestamp=time, image=image),
            label_map=label_map,
            depth=depth,
            pose_cw=pose_cw,
            object_poses_wo=object_poses,
            time=time,
        )

    # ------------------------------------------------------------------
    def _draw_object(
        self,
        scene_object: SceneObject,
        pose_co: SE3,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        mesh = scene_object.mesh
        vertices_camera = pose_co.transform(mesh.vertices)
        triangles = vertices_camera[mesh.faces]
        behind = triangles[:, :, 2] < _NEAR_PLANE
        drawable = ~behind.all(axis=1)
        if (drawable & behind.any(axis=1)).any():
            pixels, z, uvs, shades = self._clipped_triangles(triangles, behind, mesh.face_uvs)
        else:
            # Projection and shading are per-element formulas: evaluated
            # for all vertices / faces at once, they give the per-face values.
            vertex_pixels, vertex_z = self.camera.project(vertices_camera)
            faces = mesh.faces[drawable]
            pixels, z = vertex_pixels[faces], vertex_z[faces]
            uvs, shades = mesh.face_uvs[drawable], _face_shades(triangles[drawable])

        # Per-triangle set-up of _raster_triangle_reference, for all
        # triangles at once: bounding box, signed area, 1/z and uv/z.
        width, height = self.camera.width, self.camera.height
        boxes = np.stack(
            [
                np.clip(np.floor(pixels[:, :, 0].min(axis=1)), 0, width),
                np.clip(np.ceil(pixels[:, :, 0].max(axis=1)) + 1, 0, width),
                np.clip(np.floor(pixels[:, :, 1].min(axis=1)), 0, height),
                np.clip(np.ceil(pixels[:, :, 1].max(axis=1)) + 1, 0, height),
            ],
            axis=1,
        ).astype(int)
        ax, ay = pixels[:, 0, 0], pixels[:, 0, 1]
        edges = pixels[:, 1:] - pixels[:, :1]  # (b - a, c - a)
        area = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        setup = np.column_stack(
            [ax, ay, edges.reshape(-1, 4), area, 1.0 / z, uvs[:, :, 0] / z, uvs[:, :, 1] / z]
        )
        visible = (boxes[:, 1] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 2])
        visible &= ~(np.abs(area) < 1e-9)
        for index in np.flatnonzero(visible).tolist():
            self._raster_triangle(
                boxes[index].tolist(),
                setup[index].tolist(),
                scene_object,
                shades[index],
                color,
                depth,
                label_map,
            )

    def _clipped_triangles(
        self, triangles: np.ndarray, behind: np.ndarray, face_uvs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(pixels, z, uvs, shades) of an object's triangles in draw order,
        with each face that crosses the near plane replaced by the fan of
        its Sutherland-Hodgman clipped polygon."""
        pixels, z, uvs, shades = [], [], [], []
        for face_index in np.flatnonzero(~behind.all(axis=1)).tolist():
            polygon, polygon_uv = triangles[face_index], face_uvs[face_index]
            if behind[face_index].any():
                polygon, polygon_uv = _clip_polygon_near(polygon, polygon_uv, _NEAR_PLANE)
                if len(polygon) < 3:
                    continue
            fan = [[0, k, k + 1] for k in range(1, len(polygon) - 1)]
            polygon_pixels, polygon_z = self.camera.project(polygon)
            pixels.append(polygon_pixels[fan])
            z.append(polygon_z[fan])
            uvs.append(polygon_uv[fan])
            shades.append(np.repeat(_face_shades(polygon[None, :3]), len(fan)))
        if not pixels:
            return np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros(0)
        return np.concatenate(pixels), np.concatenate(z), np.concatenate(uvs), np.concatenate(shades)

    def _raster_triangle(
        self,
        box: list[int],
        setup: list[float],
        scene_object: SceneObject,
        shade: np.float64,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        """Rasterize one triangle from its set-up (see :meth:`_draw_object`).

        Every per-pixel value is the expression of
        :meth:`_raster_triangle_reference`, evaluated in the same order;
        what changes is the memory traffic.  The barycentrics broadcast a
        row of x against a column of y instead of two meshgrids, the
        depth chain runs in place, the UV interpolation runs only on the
        pixels that are drawn, and a drawn pixel's RGB is written as one
        12-byte item instead of three floats.
        """
        x0, x1, y0, y1 = box
        ax, ay, bax, bay, cax, cay, area, iz_a, iz_b, iz_c, ua, ub, uc, va, vb, vc = setup
        dx = self._centers_x[x0:x1] - ax  # grid_x - ax, one row
        dy = self._centers_y[y0:y1] - ay  # grid_y - ay, one column
        w_c = bax * dy - bay * dx
        w_c /= area
        w_b = dx * cay - dy * cax
        w_b /= area
        w_a = 1.0 - w_b
        w_a -= w_c
        drawn = w_a >= -1e-9
        drawn &= w_b >= -1e-9
        drawn &= w_c >= -1e-9
        if not drawn.any():
            return

        pixel_z = w_a * iz_a
        term = w_b * iz_b
        pixel_z += term
        np.multiply(w_c, iz_c, out=term)
        pixel_z += term
        np.maximum(pixel_z, 1e-12, out=pixel_z)
        np.divide(1.0, pixel_z, out=pixel_z)

        region_depth = depth[y0:y1, x0:x1]
        drawn &= pixel_z < region_depth
        drawn &= pixel_z > _NEAR_PLANE
        if not drawn.any():
            return
        w_a, w_b, w_c, pixel_z = w_a[drawn], w_b[drawn], w_c[drawn], pixel_z[drawn]

        # Perspective-correct UV interpolation.
        u_over_z = w_a * ua + w_b * ub + w_c * uc
        v_over_z = w_a * va + w_b * vb + w_c * vc
        texel = scene_object.texture.sample(u_over_z * pixel_z, v_over_z * pixel_z) * shade

        region_depth[drawn] = pixel_z
        texels = color.view(_RGB_ITEM)[y0:y1, x0:x1, 0]
        texels[drawn] = texel.astype(np.float32).view(_RGB_ITEM)[:, 0]
        label_map[y0:y1, x0:x1][drawn] = scene_object.instance_id

    # ------------------------------------------------------------------
    def _draw_object_reference(
        self,
        scene_object: SceneObject,
        pose_co: SE3,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        mesh = scene_object.mesh
        vertices_camera = pose_co.transform(mesh.vertices)
        # Per-face Lambert-ish shading from the camera-frame normal gives
        # faces distinct brightness, like real diffuse lighting.
        for face_index in range(mesh.num_faces):
            tri_camera = vertices_camera[mesh.faces[face_index]]
            if (tri_camera[:, 2] < _NEAR_PLANE).all():
                continue
            tri_uv = mesh.face_uvs[face_index]
            if (tri_camera[:, 2] < _NEAR_PLANE).any():
                tri_camera, tri_uv = _clip_polygon_near(tri_camera, tri_uv, _NEAR_PLANE)
                if len(tri_camera) < 3:
                    continue
            normal = np.cross(tri_camera[1] - tri_camera[0], tri_camera[2] - tri_camera[0])
            norm = np.linalg.norm(normal)
            shade = 0.65 + 0.35 * abs(normal[2]) / max(norm, 1e-12)
            # Fan-triangulate the clipped polygon.
            for k in range(1, len(tri_camera) - 1):
                self._raster_triangle_reference(
                    tri_camera[[0, k, k + 1]],
                    tri_uv[[0, k, k + 1]],
                    scene_object,
                    shade,
                    color,
                    depth,
                    label_map,
                )

    def _raster_triangle_reference(
        self,
        tri_camera: np.ndarray,
        tri_uv: np.ndarray,
        scene_object: SceneObject,
        shade: float,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        camera = self.camera
        pixels, z = camera.project(tri_camera)
        x0 = max(int(np.floor(pixels[:, 0].min())), 0)
        x1 = min(int(np.ceil(pixels[:, 0].max())) + 1, camera.width)
        y0 = max(int(np.floor(pixels[:, 1].min())), 0)
        y1 = min(int(np.ceil(pixels[:, 1].max())) + 1, camera.height)
        if x1 <= x0 or y1 <= y0:
            return

        ax, ay = pixels[0]
        bx, by = pixels[1]
        cx, cy = pixels[2]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(area) < 1e-9:
            return

        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1) + 0.5
        grid_x, grid_y = np.meshgrid(xs, ys)

        # Barycentric weights: compute two by signed sub-areas, infer the third.
        w_c = ((bx - ax) * (grid_y - ay) - (by - ay) * (grid_x - ax)) / area
        w_b = ((grid_x - ax) * (cy - ay) - (grid_y - ay) * (cx - ax)) / area
        w_a = 1.0 - w_b - w_c
        inside = (w_a >= -1e-9) & (w_b >= -1e-9) & (w_c >= -1e-9)
        if not inside.any():
            return

        inv_z = w_a * (1.0 / z[0]) + w_b * (1.0 / z[1]) + w_c * (1.0 / z[2])
        pixel_z = 1.0 / np.maximum(inv_z, 1e-12)

        region_depth = depth[y0:y1, x0:x1]
        closer = inside & (pixel_z < region_depth) & (pixel_z > _NEAR_PLANE)
        if not closer.any():
            return

        # Perspective-correct UV interpolation.
        u_over_z = (
            w_a * (tri_uv[0, 0] / z[0])
            + w_b * (tri_uv[1, 0] / z[1])
            + w_c * (tri_uv[2, 0] / z[2])
        )
        v_over_z = (
            w_a * (tri_uv[0, 1] / z[0])
            + w_b * (tri_uv[1, 1] / z[1])
            + w_c * (tri_uv[2, 1] / z[2])
        )
        u = u_over_z[closer] * pixel_z[closer]
        v = v_over_z[closer] * pixel_z[closer]
        texel = scene_object.texture.sample(u, v) * shade

        region_depth[closer] = pixel_z[closer]
        color[y0:y1, x0:x1][closer] = texel
        label_map[y0:y1, x0:x1][closer] = scene_object.instance_id
