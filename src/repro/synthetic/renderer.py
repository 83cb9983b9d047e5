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

:meth:`Renderer.render` runs in two passes.  The visibility pass writes
depth, labels and, per pixel, the frame-wide index of the triangle that
won it.  The shading pass turns that into RGB, and runs only when
something first reads the frame's pixels: the client's VO and mask
transfer work on features and maps, so most frames are never shaded.

The visibility pass reads only the camera, each object's instance id and
mesh, and each object's object -> camera pose, so two renders that agree
on all of these get the same pass.  A :class:`VisibilityMemo` keeps the
last pass with that key, read-only, and every renderer handed the memo
reuses it: the sessions of a fleet that see one scene along one camera
path compute one pass per tick.  Shading stays per render, with the
render's own textures and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..geometry.camera import PinholeCamera
from ..geometry.se3 import SE3
from ..image.frame import VideoFrame
from .objects import SceneObject

__all__ = ["RenderResult", "Renderer", "VisibilityMemo"]

_NEAR_PLANE = 0.05
# Sky/haze: the colour of a pixel no triangle covers.
_BACKGROUND = 110
# One uint8 RGB pixel as a single 3-byte item: a scatter of these moves
# one item per pixel instead of three strided bytes.
_RGB8_ITEM = np.dtype((np.void, 3))


@dataclass
class RenderResult:
    """Everything the simulator knows about one rendered frame."""

    frame: VideoFrame
    label_map: np.ndarray  # (H, W) int32 instance ids, 0 = background
    depth: np.ndarray  # (H, W) float32, inf where nothing was drawn
    pose_cw: SE3
    object_poses_wo: dict[int, SE3]
    time: float
    # Visible instance masks by id, filled by visible_masks(); every
    # render of one visibility pass shares the dict.
    masks: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def instance_mask(self, instance_id: int) -> np.ndarray:
        return self.label_map == instance_id

    @property
    def visible_instance_ids(self) -> list[int]:
        """Sorted ids of the instances with at least one pixel."""
        counts = np.bincount(self.label_map.ravel())
        return (np.flatnonzero(counts[1:]) + 1).tolist()

    def visible_masks(self) -> dict[int, np.ndarray]:
        """Each visible instance's read-only boolean mask, by id in id
        order; built once per visibility pass, then shared."""
        if not self.masks:
            for instance_id in self.visible_instance_ids:
                mask = self.label_map == instance_id
                mask.flags.writeable = False
                self.masks[instance_id] = mask
        return self.masks


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


def _set_texture_time(textures, time: float) -> None:
    """Give every time-varying texture (e.g. the chaos lighting shift)
    the frame time; call before sampling any of the frame's texels."""
    for texture in textures:
        set_time = getattr(texture, "set_time", None)
        if set_time is not None:
            set_time(time)


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


@dataclass
class _VisibilityPass:
    """One visibility pass, read-only: every render of the same view
    shares it."""

    depth: np.ndarray  # (H, W) float32, inf where nothing was drawn
    label_map: np.ndarray  # (H, W) int32 instance ids, 0 = background
    winner: np.ndarray  # (H, W) int32 frame-wide triangle index, -1 = none
    params: np.ndarray  # (17, T) set-up and shade (see Renderer._draw_object)
    owner: np.ndarray  # (T,) int16 index of each triangle's object
    masks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for array in (self.depth, self.label_map, self.winner, self.params, self.owner):
            array.flags.writeable = False


class VisibilityMemo:
    """The last visibility pass computed by the renderers that share this
    memo, with its key: the camera, each object's instance id and mesh,
    and the bytes of each object's object -> camera pose.  The key holds
    everything the pass reads, so a render whose key equals it gets the
    same depth, labels and winners bit for bit.  One entry is enough for
    renders in lockstep; the frame loop clears it after each tick, and
    the memo dies with its owner (a run)."""

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.visibility: _VisibilityPass | None = None

    def clear(self) -> None:
        """Forget the pass (the next render computes its own)."""
        self.key = self.visibility = None


@dataclass
class _Visibility:
    """What the shading pass needs of one frame's visibility pass."""

    winner: np.ndarray  # (H, W) int32 frame-wide triangle index, -1 = none
    # (17, T): each triangle's raster set-up (see Renderer._draw_object)
    # and its face shade, one row per quantity.
    params: np.ndarray
    owner: np.ndarray  # (T,) int16 index into ``textures``
    textures: list
    time: float


class Renderer:
    """Renders a list of :class:`SceneObject` through a pinhole camera.

    A triangle whose bounding box holds ``strip_min_box_px`` pixels or
    more is rasterized in strips of ``strip_rows`` rows, each trimmed to
    the triangle's extent inside it (see :meth:`_strips`).  Below that
    size a raster call's fixed cost outweighs what trimming saves; above
    it the per-pixel cost of one call over the whole box roughly doubles,
    because its float64 temporaries no longer fit in cache.

    The shading pass works through one object's pixels at a time,
    ``shade_chunk`` of them per call, so its float64 temporaries stay
    small: a render and its shading together peak lower than the eager
    render with its float32 RGB buffer did.

    A render keeps nothing of its own: its visibility pass stays in
    ``memo`` (a private :class:`VisibilityMemo` unless a run hands every
    renderer one to share) until a render needs a different view.
    """

    strip_rows = 32
    strip_min_box_px = 32768
    shade_chunk = 4096

    def __init__(self, camera: PinholeCamera, objects: list[SceneObject]):
        self.camera = camera
        self.objects = objects
        # Pixel-center coordinates: a row of x and a column of y.
        self._centers_x = np.arange(camera.width) + 0.5
        self._centers_y = (np.arange(camera.height) + 0.5)[:, None]
        self.memo = VisibilityMemo()
        # What the visibility pass reads besides the poses, as bytes, so
        # that key equality is content equality.
        intrinsics = np.array([camera.fx, camera.fy, camera.cx, camera.cy], dtype=float)
        self._scene_key = (
            intrinsics.tobytes(),
            camera.width,
            camera.height,
            tuple(
                (
                    scene_object.instance_id,
                    *(
                        (array.dtype.str, array.shape, array.tobytes())
                        for array in (
                            scene_object.mesh.vertices,
                            scene_object.mesh.faces,
                            scene_object.mesh.face_uvs,
                        )
                    ),
                )
                for scene_object in objects
            ),
        )

    def render(self, pose_cw: SE3, time: float, frame_index: int = 0) -> RenderResult:
        """Depth, labels and each pixel's winning triangle, from the memo
        when it holds this view, else from a new visibility pass.  The
        frame's image is shaded from these with this renderer's textures
        on first read (see :meth:`_shade`), bit-identical to
        :meth:`render_reference`."""
        poses_co, object_poses = self._object_poses(pose_cw, time)
        key = (
            self._scene_key,
            b"".join(p.rotation.tobytes() + p.translation.tobytes() for p in poses_co),
        )
        memo = self.memo
        if memo.key != key:
            # Let go of the old pass before drawing the new one, so the
            # memo never holds two frames' rasters at once.
            memo.clear()
            memo.visibility, memo.key = self._visibility_pass(poses_co), key
        shared = memo.visibility
        visibility = _Visibility(
            winner=shared.winner,
            params=shared.params,
            owner=shared.owner,
            textures=[scene_object.texture for scene_object in self.objects],
            time=time,
        )
        frame = VideoFrame.deferred(
            frame_index,
            time,
            (self.camera.height, self.camera.width),
            partial(self._shade, visibility),
        )
        return RenderResult(
            frame=frame,
            label_map=shared.label_map,
            depth=shared.depth,
            pose_cw=pose_cw,
            object_poses_wo=object_poses,
            time=time,
            masks=shared.masks,
        )

    def _visibility_pass(self, poses_co: list[SE3]) -> _VisibilityPass:
        """Rasterize every object at its object -> camera pose: depth,
        labels, each pixel's winning triangle and the shading set-up."""
        height, width = self.camera.height, self.camera.width
        depth = np.full((height, width), np.inf, dtype=np.float32)
        label_map = np.zeros((height, width), dtype=np.int32)
        winner = np.full((height, width), -1, dtype=np.int32)
        params, counts = [np.zeros((17, 0))], []
        for scene_object, pose_co in zip(self.objects, poses_co):
            part = self._draw_object(
                scene_object, pose_co, sum(counts), depth, label_map, winner
            )
            params.append(part)
            counts.append(part.shape[1])
        return _VisibilityPass(
            depth=depth,
            label_map=label_map,
            winner=winner,
            params=np.concatenate(params, axis=1),
            owner=np.repeat(np.arange(len(counts), dtype=np.int16), counts),
        )

    def render_reference(
        self, pose_cw: SE3, time: float, frame_index: int = 0
    ) -> RenderResult:
        """Per-face, full-bounding-box, eagerly shaded form of
        :meth:`render` (equivalence oracle): the same three rasters, bit
        for bit."""
        height, width = self.camera.height, self.camera.width
        color = np.full((height, width, 3), float(_BACKGROUND), dtype=np.float32)
        depth = np.full((height, width), np.inf, dtype=np.float32)
        label_map = np.zeros((height, width), dtype=np.int32)
        _set_texture_time([scene_object.texture for scene_object in self.objects], time)
        poses_co, object_poses = self._object_poses(pose_cw, time)
        for scene_object, pose_co in zip(self.objects, poses_co):
            self._draw_object_reference(scene_object, pose_co, color, depth, label_map)
        image = np.clip(color, 0.0, 255.0).astype(np.uint8)
        return RenderResult(
            frame=VideoFrame(index=frame_index, timestamp=time, image=image),
            label_map=label_map,
            depth=depth,
            pose_cw=pose_cw,
            object_poses_wo=object_poses,
            time=time,
        )

    def _object_poses(self, pose_cw: SE3, time: float) -> tuple[list[SE3], dict[int, SE3]]:
        """Each object's object -> camera pose at ``time``, and the world
        pose of every foreground object by instance id."""
        poses_co, object_poses = [], {}
        for scene_object in self.objects:
            pose_wo = scene_object.pose_wo(time)
            if not scene_object.is_background:
                object_poses[scene_object.instance_id] = pose_wo
            poses_co.append(pose_cw @ pose_wo)
        return poses_co, object_poses

    # ------------------------------------------------------------------
    def _draw_object(
        self,
        scene_object: SceneObject,
        pose_co: SE3,
        first: int,
        depth: np.ndarray,
        label_map: np.ndarray,
        winner: np.ndarray,
    ) -> np.ndarray:
        """Rasterize one object's triangles, numbered from ``first`` in
        ``winner``; returns their (17, n) shading parameters."""
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
        params = np.vstack(
            [ax, ay, edges.reshape(-1, 4).T, area, (1.0 / z).T, (uvs[:, :, 0] / z).T,
             (uvs[:, :, 1] / z).T, shades]
        )
        setup = params[:10].T.tolist()  # what the visibility pass reads
        box_width = boxes[:, 1] - boxes[:, 0]
        box_height = boxes[:, 3] - boxes[:, 2]
        visible = (box_width > 0) & (box_height > 0)
        visible &= ~(np.abs(area) < 1e-9)
        striped = (box_width * box_height >= self.strip_min_box_px).tolist()
        for index in np.flatnonzero(visible).tolist():
            box = boxes[index].tolist()
            if striped[index]:
                strips = self._strips(box, pixels[index].tolist())
            else:
                strips = (box,)
            for strip in strips:
                self._raster_triangle(
                    strip,
                    setup[index],
                    first + index,
                    scene_object.instance_id,
                    depth,
                    label_map,
                    winner,
                )
        return params

    def _strips(self, box: list[int], corners: list[list[float]]) -> list[list[int]]:
        """Sub-boxes of ``box`` that together hold every pixel the triangle
        with pixel ``corners`` can draw, one per band of ``strip_rows`` rows.

        A band's x-range shrinks to the triangle's extent between the
        band's top and bottom pixel edges (half a pixel beyond its outer
        pixel centres), widened by one pixel, so no pixel the barycentric
        test draws falls outside its strip; a band the triangle misses is
        dropped.  That extent is the x-range of the triangle's edges
        clipped to the band; a horizontal edge adds nothing its two
        neighbours do not.
        """
        x0, x1, y0, y1 = box
        edges = []
        for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
            if py != qy:
                if py > qy:
                    px, py, qx, qy = qx, qy, px, py
                edges.append((py, qy, px, (qx - px) / (qy - py)))
        strips = []
        for top in range(y0, y1, self.strip_rows):
            bottom = min(top + self.strip_rows, y1)
            left, right = math.inf, -math.inf
            for low, high, px, slope in edges:
                lo, hi = max(top, low), min(bottom, high)
                if lo <= hi:
                    xa = px + (lo - low) * slope
                    xb = px + (hi - low) * slope
                    left = min(left, xa, xb)
                    right = max(right, xa, xb)
            if left <= right:
                sx0 = max(x0, math.floor(left) - 1)
                sx1 = min(x1, math.ceil(right) + 1)
                if sx1 > sx0:
                    strips.append([sx0, sx1, top, bottom])
        return strips

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
        triangle: int,
        instance_id: int,
        depth: np.ndarray,
        label_map: np.ndarray,
        winner: np.ndarray,
    ) -> None:
        """Depth-test one triangle from its set-up (see :meth:`_draw_object`)
        and write depth, label and ``triangle`` where it wins.

        Every per-pixel value is the expression of
        :meth:`_raster_triangle_reference`, evaluated in the same order;
        what changes is the memory traffic.  The barycentrics broadcast a
        row of x against a column of y instead of two meshgrids, the
        depth chain runs in place, and colour is left to :meth:`_shade`.
        """
        x0, x1, y0, y1 = box
        ax, ay, bax, bay, cax, cay, area, iz_a, iz_b, iz_c = setup
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
        np.copyto(region_depth, pixel_z, where=drawn)
        np.copyto(label_map[y0:y1, x0:x1], instance_id, where=drawn)
        np.copyto(winner[y0:y1, x0:x1], triangle, where=drawn)

    def _shade(self, visibility: _Visibility) -> np.ndarray:
        """The shading pass: the (H, W, 3) uint8 image of a visibility pass.

        A pixel's colour under :meth:`render_reference` is the texel of
        the last triangle that passed its depth test, and that triangle
        is the pixel's ``winner``.  Its barycentrics, depth and UV are
        recomputed here from the same set-up with the same expressions
        in the same order (``x + 0.5`` is ``_centers_x[x]``), so every
        intermediate is bit-identical to the one the reference raster
        samples with.  Textures get the frame's time first: rendering a
        later frame may have moved a time-varying texture since.
        """
        height, width = visibility.winner.shape
        image = np.full((height, width, 3), _BACKGROUND, dtype=np.uint8)
        # Each pixel's RGB as one 3-byte item, so the scatter moves one
        # item per pixel.
        texels = image.view(_RGB8_ITEM).reshape(-1)
        winner = visibility.winner.reshape(-1)
        textures = visibility.textures
        # Each pixel's object: the owner of its winning triangle.  An
        # undrawn pixel's -1 takes the appended last entry, len(textures),
        # which no object has.
        owners = np.append(visibility.owner, np.int16(len(textures))).take(winner)
        _set_texture_time(textures, visibility.time)
        for index, texture in enumerate(textures):
            pixels = np.flatnonzero(owners == index)
            for low in range(0, len(pixels), self.shade_chunk):
                chunk = pixels[low : low + self.shade_chunk]
                rgb = self._shade_pixels(texture, chunk, winner.take(chunk), visibility.params)
                texels.put(chunk, rgb.view(_RGB8_ITEM).reshape(-1))
        return image

    def _shade_pixels(
        self, texture, pixels: np.ndarray, triangles: np.ndarray, params: np.ndarray
    ) -> np.ndarray:
        """The (n, 3) uint8 colour of ``pixels`` (flat indices), each won
        by the triangle of ``triangles`` at the same position, all of them
        faces of the object ``texture`` paints.

        Each set-up quantity is gathered per pixel just before its one
        use, so only a few chunk-sized temporaries live at once.
        """
        ax, ay, bax, bay, cax, cay, area, iz_a, iz_b, iz_c, ua, ub, uc, va, vb, vc, shade = (
            params
        )
        rows = pixels // self.camera.width
        cols = pixels - rows * self.camera.width
        # ``x + 0.5`` is ``_centers_x[x]``, bit for bit.
        dx = cols + 0.5
        dx -= ax.take(triangles)  # grid_x - ax
        dy = rows + 0.5
        dy -= ay.take(triangles)  # grid_y - ay
        area = area.take(triangles)
        w_c = bax.take(triangles)
        w_c *= dy
        w_c -= bay.take(triangles) * dx
        w_c /= area
        w_b = cay.take(triangles)
        w_b *= dx
        w_b -= dy * cax.take(triangles)
        w_b /= area
        w_a = 1.0 - w_b
        w_a -= w_c

        pixel_z = iz_a.take(triangles)
        pixel_z *= w_a
        pixel_z += w_b * iz_b.take(triangles)
        pixel_z += w_c * iz_c.take(triangles)
        np.maximum(pixel_z, 1e-12, out=pixel_z)
        np.divide(1.0, pixel_z, out=pixel_z)

        # Perspective-correct UV interpolation.
        u = ua.take(triangles)
        u *= w_a
        u += w_b * ub.take(triangles)
        u += w_c * uc.take(triangles)
        u *= pixel_z
        v = va.take(triangles)
        v *= w_a
        v += w_b * vb.take(triangles)
        v += w_c * vc.take(triangles)
        v *= pixel_z
        # The float64 product the reference takes of a float32 texel.
        texel = texture.sample(u, v).astype(np.float64)
        texel *= shade.take(triangles)[:, None]
        rgb = texel.astype(np.float32)
        np.clip(rgb, 0.0, 255.0, out=rgb)
        return rgb.astype(np.uint8)

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
