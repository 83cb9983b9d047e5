"""Motion-only bundle adjustment (PnP) by robust Gauss-Newton.

This is the optimizer behind Eq. (4) of the paper:

    T_cw = argmin_T  sum_k || pi(T, P_k) - p_k ||^2

edgeIS calls it twice per frame — once with background-labeled map points to
solve the device pose, and once per object with the object's points to solve
the device pose *relative to that object* (Section III-B, Eq. 6-7).

A Huber robust kernel downweights mismatches, which is what lets the
background solve shrug off features that actually sit on a moving object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import PinholeCamera
from .se3 import SE3, skew

__all__ = ["PnPResult", "solve_pnp", "refine_pose", "dlt_pose"]

MIN_PNP_POINTS = 3  # the paper: "performing BA requires at least 3 pairs"


@dataclass
class PnPResult:
    """Outcome of a pose solve."""

    pose_cw: SE3
    inlier_mask: np.ndarray
    iterations: int
    final_rms: float
    converged: bool

    @property
    def num_inliers(self) -> int:
        return int(self.inlier_mask.sum())


def _residuals_and_jacobian_reference(
    camera: PinholeCamera,
    pose_cw: SE3,
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point reference for :func:`_residuals_and_jacobian`.

    Assembles the rotational Jacobian block one :func:`skew` matrix at a
    time — kept for equivalence tests and the ``ba.jacobian`` micro cell.
    """
    points_camera = pose_cw.transform(points_world)
    depths = points_camera[:, 2]
    valid = depths > 1e-6
    safe_z = np.where(valid, depths, 1.0)

    u = camera.fx * points_camera[:, 0] / safe_z + camera.cx
    v = camera.fy * points_camera[:, 1] / safe_z + camera.cy
    residuals = np.stack([u - pixels[:, 0], v - pixels[:, 1]], axis=1)

    inv_z = 1.0 / safe_z
    x_over_z = points_camera[:, 0] * inv_z
    y_over_z = points_camera[:, 1] * inv_z

    count = len(points_world)
    # d(pixel)/d(P_c): 2x3 per point.
    jacobian_pixel = np.zeros((count, 2, 3))
    jacobian_pixel[:, 0, 0] = camera.fx * inv_z
    jacobian_pixel[:, 0, 2] = -camera.fx * x_over_z * inv_z
    jacobian_pixel[:, 1, 1] = camera.fy * inv_z
    jacobian_pixel[:, 1, 2] = -camera.fy * y_over_z * inv_z

    # d(P_c)/d(xi): 3x6 per point = [I | -skew(P_c)].
    jacobian_point = np.zeros((count, 3, 6))
    jacobian_point[:, 0, 0] = 1.0
    jacobian_point[:, 1, 1] = 1.0
    jacobian_point[:, 2, 2] = 1.0
    for i in range(count):
        jacobian_point[i, :, 3:] = -skew(points_camera[i])

    jacobian = np.einsum("nij,njk->nik", jacobian_pixel, jacobian_point)
    return residuals, jacobian, valid


def _residuals(
    camera: PinholeCamera,
    pose_cw: SE3,
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(camera-frame points, (N, 2) pixel residuals, safe depths, valid):
    the residual half of :func:`_residuals_and_jacobian`."""
    points_camera = pose_cw.transform(points_world)
    depths = points_camera[:, 2]
    valid = depths > 1e-6
    safe_z = np.where(valid, depths, 1.0)
    residuals = (
        np.array([camera.fx, camera.fy]) * points_camera[:, :2] / safe_z[:, None]
        + np.array([camera.cx, camera.cy])
        - pixels
    )
    return points_camera, residuals, safe_z, valid


def _residuals_and_jacobian(
    camera: PinholeCamera,
    pose_cw: SE3,
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked 2N residuals and the (2N, 6) Jacobian w.r.t. a left twist.

    The update convention is ``T <- exp(xi) @ T`` with twist ordering
    (rho, omega), so d(P_c)/d(xi) = [I | -skew(P_c)], with -skew([x, y, z])
    = [[0, z, -y], [-z, 0, x], [y, -x, 0]].  The pixel block d(pixel)/d(P_c)
    is [[a, 0, b], [0, c, d]], so each Jacobian entry is written in closed
    form from at most two products:

        row 0: [a, 0, b, b*y, a*z + b*(-x), a*(-y)]
        row 1: [0, c, d, c*(-z) + d*y, d*(-x), c*x]

    The reference's ``einsum`` sums three terms left to right from zero,
    the dropped term being a signed zero; adding ``0.0`` at the end turns
    a ``-0.0`` into ``+0.0`` the same way, so this is bit for bit
    :func:`_residuals_and_jacobian_reference`.
    """
    points_camera, residuals, safe_z, valid = _residuals(
        camera, pose_cw, points_world, pixels
    )
    focal = np.array([camera.fx, camera.fy])
    inv_z = 1.0 / safe_z
    # d(pixel)/d(P_c): diagonal (a, c) and last column (b, d) per point.
    diagonal = focal * inv_z[:, None]
    last_column = -focal * (points_camera[:, :2] * inv_z[:, None]) * inv_z[:, None]

    a, c = diagonal[:, 0], diagonal[:, 1]
    b, d = last_column[:, 0], last_column[:, 1]
    x, y, z = points_camera[:, 0], points_camera[:, 1], points_camera[:, 2]
    jacobian = np.zeros((len(points_world), 2, 6))
    jacobian[:, 0, 0] = a
    jacobian[:, 0, 2] = b
    jacobian[:, 0, 3] = b * y
    jacobian[:, 0, 4] = a * z + b * -x
    jacobian[:, 0, 5] = a * -y
    jacobian[:, 1, 1] = c
    jacobian[:, 1, 2] = d
    jacobian[:, 1, 3] = c * -z + d * y
    jacobian[:, 1, 4] = d * -x
    jacobian[:, 1, 5] = c * x
    jacobian += 0.0
    return residuals, jacobian, valid


def _huber_weights(residual_norms: np.ndarray, delta: float | None) -> np.ndarray:
    weights = np.ones_like(residual_norms)
    if delta is None:
        return weights
    large = residual_norms > delta
    weights[large] = delta / residual_norms[large]
    return weights


def refine_pose(
    camera: PinholeCamera,
    initial_pose_cw: SE3,
    points_world: np.ndarray,
    pixels: np.ndarray,
    max_iterations: int = 15,
    huber_delta: float | None = 2.5,
    inlier_threshold: float = 4.0,
    convergence_tol: float = 1e-8,
) -> PnPResult:
    """Gauss-Newton pose refinement from an initial guess.

    Returns the refined pose along with an inlier classification at
    ``inlier_threshold`` pixels, used by callers to decide whether tracking
    succeeded.
    """
    points_world = np.asarray(points_world, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points_world) < MIN_PNP_POINTS:
        raise ValueError(
            f"refine_pose needs >= {MIN_PNP_POINTS} correspondences, got {len(points_world)}"
        )

    pose = initial_pose_cw
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        residuals, jacobian, valid = _residuals_and_jacobian(
            camera, pose, points_world, pixels
        )
        residual_norms = np.linalg.norm(residuals, axis=1)
        weights = _huber_weights(residual_norms, huber_delta)
        weights[~valid] = 0.0
        if weights.sum() < MIN_PNP_POINTS:
            break

        # Weighted normal equations: (J^T W J) xi = -J^T W r.
        weighted = weights[:, None, None] * jacobian
        hessian = np.einsum("nij,nik->jk", weighted, jacobian)
        gradient = np.einsum("nij,ni->j", weighted, residuals)
        # Levenberg damping keeps steps sane when geometry is weak.
        hessian += 1e-6 * np.eye(6) * max(np.trace(hessian) / 6.0, 1.0)
        try:
            step = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError:  # pragma: no cover - singular geometry
            break
        pose = pose.retract(step)
        if np.linalg.norm(step) < convergence_tol:
            converged = True
            break

    _, residuals, _, valid = _residuals(camera, pose, points_world, pixels)
    residual_norms = np.linalg.norm(residuals, axis=1)
    inlier_mask = valid & (residual_norms < inlier_threshold)
    final_rms = (
        float(np.sqrt(np.mean(np.square(residual_norms[inlier_mask]))))
        if inlier_mask.any()
        else float("inf")
    )
    return PnPResult(
        pose_cw=pose,
        inlier_mask=inlier_mask,
        iterations=iteration,
        final_rms=final_rms,
        converged=converged,
    )


def solve_pnp(
    camera: PinholeCamera,
    points_world: np.ndarray,
    pixels: np.ndarray,
    initial_pose_cw: SE3 | None = None,
    ransac_iterations: int = 0,
    rng: np.random.Generator | None = None,
    **refine_kwargs,
) -> PnPResult:
    """Solve camera-from-world pose from 2D-3D correspondences.

    With an initial pose (the common tracking case: previous frame's pose)
    this is a direct Gauss-Newton refinement.  Without one, or when
    ``ransac_iterations`` > 0, minimal 6-point hypotheses are scored first
    and the best seeds the refinement — the cold-start / relocalization path.
    """
    points_world = np.asarray(points_world, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    count = len(points_world)
    if count < MIN_PNP_POINTS:
        raise ValueError(f"solve_pnp needs >= {MIN_PNP_POINTS} correspondences")

    cold_start = initial_pose_cw is None
    if cold_start:
        if count >= 6:
            initial_pose_cw = dlt_pose(camera, points_world, pixels)
        else:
            initial_pose_cw = _initial_pose_guess(points_world)
        # Descend without a robust kernel first: with huge initial
        # residuals Huber downweighting stalls Gauss-Newton.
        warmup = refine_pose(
            camera,
            initial_pose_cw,
            points_world,
            pixels,
            max_iterations=60,
            huber_delta=None,
            inlier_threshold=refine_kwargs.get("inlier_threshold", 4.0),
        )
        initial_pose_cw = warmup.pose_cw

    if ransac_iterations > 0 and count >= 6:
        from .triangulation import reprojection_errors, reprojection_errors_batch

        rng = np.random.default_rng(0) if rng is None else rng
        threshold = refine_kwargs.get("inlier_threshold", 4.0)
        best_pose = initial_pose_cw
        best_mask = (
            reprojection_errors(camera.matrix, initial_pose_cw, points_world, pixels)
            < threshold
        )
        best_inliers = int(best_mask.sum())
        # Fit every minimal-sample hypothesis first (the rng.choice order
        # is the contract), then score all of them against the full point
        # set in one batched reprojection.  argmax picks the first
        # occurrence of the max count — the same winner the incremental
        # strictly-greater scan of _score_hypotheses_reference keeps.
        candidates: list[SE3] = []
        for _ in range(ransac_iterations):
            sample = rng.choice(count, size=6, replace=False)
            try:
                candidate = refine_pose(
                    camera,
                    initial_pose_cw,
                    points_world[sample],
                    pixels[sample],
                    max_iterations=25,
                    huber_delta=None,
                )
            except ValueError:  # pragma: no cover
                continue
            candidates.append(candidate.pose_cw)
        if candidates:
            errors = reprojection_errors_batch(
                camera.matrix, candidates, points_world, pixels
            )
            masks = errors < threshold
            inlier_counts = masks.sum(axis=1)
            winner = int(np.argmax(inlier_counts))
            if int(inlier_counts[winner]) > best_inliers:
                best_inliers = int(inlier_counts[winner])
                best_pose = candidates[winner]
                best_mask = masks[winner]
        # Refine on the consensus set only: refining on all points with a
        # robust kernel can still slide into a dominant-outlier basin
        # (e.g. the mirror solution of a near-planar point cloud).
        if best_mask.sum() >= MIN_PNP_POINTS:
            refined = refine_pose(
                camera,
                best_pose,
                points_world[best_mask],
                pixels[best_mask],
                **refine_kwargs,
            )
            final_errors = reprojection_errors(
                camera.matrix, refined.pose_cw, points_world, pixels
            )
            inlier_mask = final_errors < threshold
            return PnPResult(
                pose_cw=refined.pose_cw,
                inlier_mask=inlier_mask,
                iterations=refined.iterations,
                final_rms=(
                    float(np.sqrt(np.mean(np.square(final_errors[inlier_mask]))))
                    if inlier_mask.any()
                    else float("inf")
                ),
                converged=refined.converged,
            )
        initial_pose_cw = best_pose

    return refine_pose(camera, initial_pose_cw, points_world, pixels, **refine_kwargs)


def _score_hypotheses_reference(
    camera_matrix: np.ndarray,
    poses_cw: list[SE3],
    points_world: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Per-candidate scoring loop — the pre-vectorization RANSAC inner
    loop, kept as reference for ``reprojection_errors_batch``
    (equivalence tests; ``ba.ransac_score`` micro cell)."""
    from .triangulation import reprojection_errors

    if not poses_cw:
        return np.zeros((0, len(points_world)))
    return np.stack(
        [
            reprojection_errors(camera_matrix, pose, points_world, pixels)
            for pose in poses_cw
        ]
    )


def _initial_pose_guess(points_world: np.ndarray) -> SE3:
    """Crude cold-start guess: camera looking at the point cloud centroid."""
    centroid = points_world.mean(axis=0)
    spread = float(np.max(np.linalg.norm(points_world - centroid, axis=1)))
    eye = centroid - np.array([0.0, 0.0, max(3.0 * spread, 1.0)])
    return SE3.look_at(eye, centroid)


def _dlt_rows_reference(
    normalized: np.ndarray, homogeneous: np.ndarray
) -> np.ndarray:
    """Per-correspondence DLT row assembly — scalar reference for
    :func:`_dlt_rows` (``ba.dlt_rows`` micro cell)."""
    rows = []
    for (x, y), point_h in zip(normalized, homogeneous):
        rows.append(np.concatenate([point_h, np.zeros(4), -x * point_h]))
        rows.append(np.concatenate([np.zeros(4), point_h, -y * point_h]))
    return np.asarray(rows)


def _dlt_rows(normalized: np.ndarray, homogeneous: np.ndarray) -> np.ndarray:
    """Interleaved (2N, 12) DLT constraint matrix, assembled by four
    strided block writes instead of 2N concatenations."""
    count = len(homogeneous)
    rows = np.zeros((2 * count, 12))
    rows[0::2, 0:4] = homogeneous
    rows[0::2, 8:12] = -normalized[:, :1] * homogeneous
    rows[1::2, 4:8] = homogeneous
    rows[1::2, 8:12] = -normalized[:, 1:2] * homogeneous
    return rows


def dlt_pose(
    camera: PinholeCamera, points_world: np.ndarray, pixels: np.ndarray
) -> SE3:
    """Linear (DLT) camera pose from >= 6 2D-3D correspondences.

    Solves the 3x4 projection matrix in normalized image coordinates and
    projects its left 3x3 block onto SO(3).  Accuracy is limited (algebraic
    cost, no noise model) but it is an excellent Gauss-Newton seed.
    """
    points_world = np.asarray(points_world, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points_world) < 6:
        raise ValueError("dlt_pose needs >= 6 correspondences")
    normalized = camera.normalize(pixels)
    homogeneous = np.column_stack([points_world, np.ones(len(points_world))])
    _, _, vt = np.linalg.svd(_dlt_rows(normalized, homogeneous))
    projection = vt[-1].reshape(3, 4)
    # Fix the overall sign so points land in front of the camera.
    depths = homogeneous @ projection[2]
    if np.median(depths) < 0:
        projection = -projection
    u, singular, vt_r = np.linalg.svd(projection[:, :3])
    rotation = u @ vt_r
    if np.linalg.det(rotation) < 0:
        rotation = -rotation
        projection = -projection  # keep P consistent with the flipped R
        u, singular, vt_r = np.linalg.svd(projection[:, :3])
        rotation = u @ vt_r
        if np.linalg.det(rotation) < 0:  # pragma: no cover - degenerate
            rotation = u @ np.diag([1.0, 1.0, -1.0]) @ vt_r
    scale = float(np.mean(singular))
    translation = projection[:, 3] / max(scale, 1e-12)
    return SE3(rotation, translation)
