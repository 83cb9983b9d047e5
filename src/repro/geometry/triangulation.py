"""Triangulation of 3-D points from two views.

Implements the depth recovery of Eq. (3): given matched normalized rays in
two frames and the relative pose between them, solve for the 3-D point.
Two solvers are provided — the linear DLT used for map creation and a fast
midpoint method used during initialization candidate scoring.
"""

from __future__ import annotations

import numpy as np

from .se3 import SE3

__all__ = [
    "triangulate_dlt",
    "triangulate_dlt_each",
    "triangulate_midpoint",
    "reprojection_errors",
    "reprojection_errors_batch",
    "reprojection_errors_each",
]


def _rays_from_normalized(normalized: np.ndarray) -> np.ndarray:
    """Append z=1 to normalized image coordinates to get direction vectors."""
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    return np.column_stack([normalized, np.ones(len(normalized))])


def triangulate_midpoint(
    norm0: np.ndarray,
    norm1: np.ndarray,
    pose_10: SE3,
    min_depth: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of matched normalized points.

    Parameters
    ----------
    norm0, norm1:
        (N, 2) normalized coordinates in frame 0 and frame 1.
    pose_10:
        Frame-1-from-frame-0 transform.

    Returns
    -------
    points:
        (N, 3) points in frame-0 coordinates (garbage where invalid).
    valid:
        Boolean cheirality mask: positive depth in both cameras.
    """
    rays0 = _rays_from_normalized(norm0)
    rays1_in_1 = _rays_from_normalized(norm1)
    pose_01 = pose_10.inverse()
    # Express frame-1 rays in frame-0 coordinates.
    directions1 = rays1_in_1 @ pose_01.rotation.T
    origin1 = pose_01.translation

    # Solve min over (s0, s1) of |s0*d0 - (o1 + s1*d1)|^2 per match.
    d0_dot_d0 = np.sum(rays0 * rays0, axis=1)
    d1_dot_d1 = np.sum(directions1 * directions1, axis=1)
    d0_dot_d1 = np.sum(rays0 * directions1, axis=1)
    d0_dot_o = rays0 @ origin1
    d1_dot_o = directions1 @ origin1

    denominator = d0_dot_d0 * d1_dot_d1 - d0_dot_d1 * d0_dot_d1
    safe_denominator = np.where(np.abs(denominator) < 1e-12, 1e-12, denominator)
    s0 = (d1_dot_d1 * d0_dot_o - d0_dot_d1 * d1_dot_o) / safe_denominator
    s1 = (d0_dot_d1 * d0_dot_o - d0_dot_d0 * d1_dot_o) / safe_denominator

    points0_side = rays0 * s0[:, None]
    points1_side = origin1 + directions1 * s1[:, None]
    points = 0.5 * (points0_side + points1_side)

    depths0 = points[:, 2]
    depths1 = (pose_10.transform(points))[:, 2]
    valid = (
        (depths0 > min_depth)
        & (depths1 > min_depth)
        & (np.abs(denominator) > 1e-12)
    )
    return points, valid


def triangulate_dlt(
    norm0: np.ndarray,
    norm1: np.ndarray,
    pose_0w: SE3,
    pose_1w: SE3,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear (DLT) triangulation into *world* coordinates.

    Each view contributes two rows to ``A X = 0`` built from its 3x4
    projection matrix in normalized coordinates; solved per-point by SVD.

    Returns world points and a cheirality validity mask.
    """
    return triangulate_dlt_each(
        norm0,
        norm1,
        pose_0w.rotation,
        pose_0w.translation,
        pose_1w.rotation,
        pose_1w.translation,
    )


def triangulate_dlt_each(
    norm0: np.ndarray,
    norm1: np.ndarray,
    rotations0: np.ndarray,
    translations0: np.ndarray,
    rotations1: np.ndarray,
    translations1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`triangulate_dlt` with a pose pair per point.

    ``rotations*``/``translations*`` are (N, 3, 3)/(N, 3) stacks, or one
    (3, 3)/(3,) pose shared by every point.  All N 4x4 systems go to one
    stacked SVD (LAPACK still runs per matrix) and the cheirality depths
    are stacked matrix-vector products, so each point comes out bit for
    bit as :func:`_triangulate_dlt_reference` computes it alone.
    """
    norm0 = np.atleast_2d(np.asarray(norm0, dtype=float))
    norm1 = np.atleast_2d(np.asarray(norm1, dtype=float))
    count = len(norm0)
    points = np.zeros((count, 3))
    valid = np.zeros(count, dtype=bool)
    if count == 0:
        return points, valid
    rotations0 = np.broadcast_to(rotations0, (count, 3, 3))
    rotations1 = np.broadcast_to(rotations1, (count, 3, 3))
    translations0 = np.broadcast_to(translations0, (count, 3))
    translations1 = np.broadcast_to(translations1, (count, 3))
    projection0 = np.concatenate([rotations0, translations0[:, :, None]], axis=2)
    projection1 = np.concatenate([rotations1, translations1[:, :, None]], axis=2)
    a_matrix = np.stack(
        [
            norm0[:, 0:1] * projection0[:, 2] - projection0[:, 0],
            norm0[:, 1:2] * projection0[:, 2] - projection0[:, 1],
            norm1[:, 0:1] * projection1[:, 2] - projection1[:, 0],
            norm1[:, 1:2] * projection1[:, 2] - projection1[:, 1],
        ],
        axis=1,
    )
    _, _, vt = np.linalg.svd(a_matrix)
    homogeneous = vt[:, -1]
    solved = np.flatnonzero(~(np.abs(homogeneous[:, 3]) < 1e-12))
    candidate = homogeneous[solved, :3] / homogeneous[solved, 3:]
    depth0 = (
        np.matmul(rotations0[solved], candidate[:, :, None])[:, :, 0]
        + translations0[solved]
    )[:, 2]
    depth1 = (
        np.matmul(rotations1[solved], candidate[:, :, None])[:, :, 0]
        + translations1[solved]
    )[:, 2]
    in_front = (depth0 > 1e-6) & (depth1 > 1e-6)
    points[solved[in_front]] = candidate[in_front]
    valid[solved[in_front]] = True
    return points, valid


def _triangulate_dlt_reference(
    norm0: np.ndarray,
    norm1: np.ndarray,
    pose_0w: SE3,
    pose_1w: SE3,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point SVD loop form of :func:`triangulate_dlt` (equivalence
    oracle)."""
    norm0 = np.atleast_2d(np.asarray(norm0, dtype=float))
    norm1 = np.atleast_2d(np.asarray(norm1, dtype=float))
    projection0 = np.hstack([pose_0w.rotation, pose_0w.translation[:, None]])
    projection1 = np.hstack([pose_1w.rotation, pose_1w.translation[:, None]])

    count = len(norm0)
    points = np.zeros((count, 3))
    valid = np.zeros(count, dtype=bool)
    for i in range(count):
        a_matrix = np.stack(
            [
                norm0[i, 0] * projection0[2] - projection0[0],
                norm0[i, 1] * projection0[2] - projection0[1],
                norm1[i, 0] * projection1[2] - projection1[0],
                norm1[i, 1] * projection1[2] - projection1[1],
            ]
        )
        _, _, vt = np.linalg.svd(a_matrix)
        homogeneous = vt[-1]
        if abs(homogeneous[3]) < 1e-12:
            continue
        point = homogeneous[:3] / homogeneous[3]
        depth0 = (pose_0w.transform(point))[2]
        depth1 = (pose_1w.transform(point))[2]
        if depth0 > 1e-6 and depth1 > 1e-6:
            points[i] = point
            valid[i] = True
    return points, valid


def reprojection_errors(
    camera_matrix: np.ndarray,
    pose_cw: SE3,
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Per-point pixel reprojection error norm (the residual of Eq. 4)."""
    points_camera = pose_cw.transform(np.asarray(points_world, dtype=float))
    depths = np.maximum(points_camera[:, 2], 1e-12)
    projected = (points_camera @ camera_matrix.T)[:, :2] / depths[:, None]
    return np.linalg.norm(projected - np.asarray(pixels, dtype=float), axis=1)


def reprojection_errors_each(
    camera_matrix: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """:func:`reprojection_errors` of each point on its own.

    Row i is ``reprojection_errors(K, pose_i, points_world[i:i+1],
    pixels[i:i+1])[0]`` bit for bit, where ``pose_i`` is
    ``(rotations[i], translations[i])`` for (N, 3, 3)/(N, 3) stacks or one
    shared (3, 3)/(3,) pose: the (1, 3) @ (3, 3) products of a one-point
    call become one stacked matmul, which runs the same vector-matrix
    kernel per row.
    """
    points_world = np.asarray(points_world, dtype=float)
    points_camera = (
        np.matmul(points_world[:, None, :], np.swapaxes(rotations, -1, -2))[:, 0]
        + translations
    )
    depths = np.maximum(points_camera[:, 2], 1e-12)
    projected = (
        np.matmul(points_camera[:, None, :], camera_matrix.T)[:, 0, :2]
        / depths[:, None]
    )
    return np.linalg.norm(projected - np.asarray(pixels, dtype=float), axis=1)


def reprojection_errors_batch(
    camera_matrix: np.ndarray,
    poses_cw: list[SE3],
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """:func:`reprojection_errors` for many candidate poses at once.

    Returns a (C, N) matrix of per-pose, per-point error norms.  One
    broadcasted matmul per stage replaces C full reprojection passes —
    the RANSAC hypothesis-scoring hot path of
    :func:`repro.geometry.bundle_adjustment.solve_pnp`.
    """
    points_world = np.asarray(points_world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    if not poses_cw:
        return np.zeros((0, len(points_world)))
    rotations = np.stack([pose.rotation for pose in poses_cw])  # (C, 3, 3)
    translations = np.stack([pose.translation for pose in poses_cw])  # (C, 3)
    points_camera = (
        points_world @ rotations.transpose(0, 2, 1) + translations[:, None, :]
    )
    depths = np.maximum(points_camera[..., 2], 1e-12)
    projected = (points_camera @ camera_matrix.T)[..., :2] / depths[..., None]
    return np.linalg.norm(projected - pixels[None], axis=2)
