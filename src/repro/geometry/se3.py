"""Rigid-body transforms on SE(3).

edgeIS tracks the pose of the mobile device and of every observed object as
an element of SE(3).  Poses follow the paper's convention: ``T_cw`` maps a
point expressed in world coordinates into the camera frame,

    P_c = R @ P_w + t.

The class stores the rotation as a 3x3 orthonormal matrix and the
translation as a 3-vector, and provides the exponential/logarithm maps used
by the Gauss-Newton bundle adjustment in :mod:`repro.geometry.bundle_adjustment`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SE3", "skew", "so3_exp", "so3_log"]

_EPS = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Return the skew-symmetric (hat) matrix of a 3-vector.

    ``skew(a) @ b == np.cross(a, b)`` for all 3-vectors ``b``.  The paper
    writes this operator as ``(.)^`` in Eq. (2).
    """
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Exponential map from so(3) to SO(3) (Rodrigues' formula)."""
    omega = np.asarray(omega, dtype=float).reshape(3)
    theta = float(np.linalg.norm(omega))
    if theta < _EPS:
        # First-order expansion is exact enough below machine noise.
        return np.eye(3) + skew(omega)
    axis = omega / theta
    k = skew(axis)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Logarithm map from SO(3) to so(3), returning a rotation vector."""
    rotation = np.asarray(rotation, dtype=float)
    cos_theta = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _EPS:
        return np.array(
            [
                rotation[2, 1] - rotation[1, 2],
                rotation[0, 2] - rotation[2, 0],
                rotation[1, 0] - rotation[0, 1],
            ]
        ) / 2.0
    if abs(np.pi - theta) < 1e-6:
        # Near pi the standard formula is ill-conditioned; use the diagonal.
        diag = np.clip((np.diag(rotation) + 1.0) / 2.0, 0.0, None)
        axis = np.sqrt(diag)
        # Fix signs using the largest component.
        largest = int(np.argmax(axis))
        if axis[largest] > _EPS:
            for i in range(3):
                if i != largest:
                    sign_source = rotation[largest, i] + rotation[i, largest]
                    axis[i] = np.copysign(axis[i], sign_source)
        return theta * axis / max(np.linalg.norm(axis), _EPS)
    return (
        theta
        / (2.0 * np.sin(theta))
        * np.array(
            [
                rotation[2, 1] - rotation[1, 2],
                rotation[0, 2] - rotation[2, 0],
                rotation[1, 0] - rotation[0, 1],
            ]
        )
    )


class SE3:
    """A rigid transform ``P_out = R @ P_in + t``.

    Instances are immutable: every operation returns a new :class:`SE3`.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray | None = None, translation: np.ndarray | None = None):
        rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float).reshape(3, 3)
        trans = np.zeros(3) if translation is None else np.asarray(translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rot.copy())
        object.__setattr__(self, "translation", trans.copy())
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("SE3 is immutable")

    def __copy__(self) -> "SE3":
        return self

    def __deepcopy__(self, memo) -> "SE3":
        # Immutable: a copied structure may share the pose.
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity() -> "SE3":
        return SE3()

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "SE3":
        """Build from a 4x4 (or 3x4) homogeneous transform matrix."""
        matrix = np.asarray(matrix, dtype=float)
        return SE3(matrix[:3, :3], matrix[:3, 3])

    @staticmethod
    def exp(xi: np.ndarray) -> "SE3":
        """Exponential map from a twist ``xi = (rho, omega)`` in R^6.

        Uses the common first-order-coupled convention where the
        translational part is ``V(omega) @ rho``.
        """
        xi = np.asarray(xi, dtype=float).reshape(6)
        rho, omega = xi[:3], xi[3:]
        theta = float(np.linalg.norm(omega))
        rotation = so3_exp(omega)
        if theta < _EPS:
            v_matrix = np.eye(3) + 0.5 * skew(omega)
        else:
            axis = omega / theta
            k = skew(axis)
            v_matrix = (
                np.eye(3)
                + (1.0 - np.cos(theta)) / theta * k
                + (theta - np.sin(theta)) / theta * (k @ k)
            )
        return SE3(rotation, v_matrix @ rho)

    @staticmethod
    def look_at(eye: np.ndarray, target: np.ndarray, up: np.ndarray | None = None) -> "SE3":
        """Camera-from-world pose of a camera at ``eye`` looking at ``target``.

        Camera convention: +z forward, +x right, +y down (standard CV frame).
        """
        eye = np.asarray(eye, dtype=float).reshape(3)
        target = np.asarray(target, dtype=float).reshape(3)
        up = np.array([0.0, -1.0, 0.0]) if up is None else np.asarray(up, dtype=float).reshape(3)
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm < _EPS:
            raise ValueError("look_at: eye and target coincide")
        forward = forward / norm
        right = np.cross(forward, -up)
        right_norm = np.linalg.norm(right)
        if right_norm < _EPS:
            # Forward parallel to up: pick an arbitrary orthogonal right axis.
            right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
            right_norm = np.linalg.norm(right)
            if right_norm < _EPS:
                right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
                right_norm = np.linalg.norm(right)
        right = right / right_norm
        down = np.cross(forward, right)
        rotation_wc = np.stack([right, down, forward], axis=1)
        rotation_cw = rotation_wc.T
        translation = -rotation_cw @ eye
        return SE3(rotation_cw, translation)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def log(self) -> np.ndarray:
        """Twist ``(rho, omega)`` such that ``SE3.exp(log()) == self``."""
        omega = so3_log(self.rotation)
        theta = float(np.linalg.norm(omega))
        if theta < _EPS:
            v_inv = np.eye(3) - 0.5 * skew(omega)
        else:
            axis = omega / theta
            k = skew(axis)
            half = theta / 2.0
            cot_half = 1.0 / np.tan(half)
            v_inv = (
                half * cot_half * np.eye(3)
                - half * k
                + (1.0 - half * cot_half) * np.outer(axis, axis)
            )
        return np.concatenate([v_inv @ self.translation, omega])

    def inverse(self) -> "SE3":
        rotation_inv = self.rotation.T
        return SE3(rotation_inv, -rotation_inv @ self.translation)

    def compose(self, other: "SE3") -> "SE3":
        """Return ``self @ other`` (apply ``other`` first, then ``self``)."""
        return SE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other):
        if isinstance(other, SE3):
            return self.compose(other)
        return self.transform(other)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (3,) or a batch of points (N, 3)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation

    def transform_each(self, points: np.ndarray) -> np.ndarray:
        """Apply to each row of an (N, 3) array as :meth:`transform` would
        to that row alone.

        A stacked (3, 3) @ (3, 1) matmul runs the same matrix-vector kernel
        per row as ``transform(point)``, bit for bit; the plain
        (N, 3) @ (3, 3) product of :meth:`transform` on a batch may round
        differently.
        """
        points = np.asarray(points, dtype=float)
        return np.matmul(self.rotation, points[:, :, None])[:, :, 0] + self.translation

    def matrix(self) -> np.ndarray:
        """Return the 4x4 homogeneous matrix."""
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    # ------------------------------------------------------------------
    # Metrics & helpers
    # ------------------------------------------------------------------
    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates (for a camera-from-world pose)."""
        return -self.rotation.T @ self.translation

    def rotation_angle_to(self, other: "SE3") -> float:
        """Geodesic rotation distance to another pose, in radians."""
        relative = self.rotation.T @ other.rotation
        return float(np.linalg.norm(so3_log(relative)))

    def translation_distance_to(self, other: "SE3") -> float:
        return float(np.linalg.norm(self.center - other.center))

    def retract(self, xi: np.ndarray) -> "SE3":
        """Left-multiplicative update used by Gauss-Newton: ``exp(xi) @ self``."""
        return SE3.exp(xi) @ self

    def __repr__(self) -> str:
        return f"SE3(t={np.round(self.translation, 4).tolist()})"

    def allclose(self, other: "SE3", atol: float = 1e-8) -> bool:
        return bool(
            np.allclose(self.rotation, other.rotation, atol=atol)
            and np.allclose(self.translation, other.translation, atol=atol)
        )
