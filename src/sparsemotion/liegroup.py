"""Minimal SE(3)/se(3) primitives: skew operators, rigid transforms and
twist exponentials.

Rotations are stored as 3x3 matrices.  All operations are pure functions on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ROT_TOL = 1e-10
_SMALL_ANGLE = 1e-8


def skew(p) -> np.ndarray:
    """Skew-symmetric matrix such that skew(p) @ q == cross(p, q)."""
    x, y, z = p
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def is_valid(self, tol: float = _ROT_TOL) -> bool:
        R = self.rotation
        return (
            np.max(np.abs(R.T @ R - np.eye(3))) <= tol
            and abs(np.linalg.det(R) - 1.0) <= tol
        )

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self applied after other (matrix product self @ other)."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)

    def apply(self, p) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    def renormalized(self) -> "RigidTransform":
        """Project the rotation back onto SO(3) (polar decomposition)."""
        U, _, Vt = np.linalg.svd(self.rotation)
        R = U @ Vt
        if np.linalg.det(R) < 0:
            R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
        return RigidTransform(R, self.translation)


@dataclass(frozen=True)
class Twist:
    angular: np.ndarray
    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=float))
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))

    def hat(self) -> np.ndarray:
        """4x4 homogeneous form [[skew(w), v], [0, 0]]."""
        H = np.zeros((4, 4))
        H[:3, :3] = skew(self.angular)
        H[:3, 3] = self.linear
        return H


def exp_twist(xi: Twist, theta: float) -> RigidTransform:
    """Closed-form exponential of a twist through angle/parameter theta.

    Rotational twists must have a unit angular part; a zero angular part is
    treated as pure translation.
    """
    w = xi.angular
    v = xi.linear
    wn = np.linalg.norm(w)
    if wn < _SMALL_ANGLE:
        return RigidTransform(np.eye(3), v * theta)
    K = skew(w)
    s, c = np.sin(theta), np.cos(theta)
    if abs(theta) < _SMALL_ANGLE:
        # second-order Taylor keeps theta -> 0 smooth
        R = np.eye(3) + theta * K + 0.5 * theta * theta * (K @ K)
    else:
        R = np.eye(3) + s * K + (1.0 - c) * (K @ K)
    t = (np.eye(3) - R) @ np.cross(w, v) + np.outer(w, w) @ v * theta
    return RigidTransform(R, t)


def exp_twist_vector(rho) -> RigidTransform:
    """Exponential of an arbitrary (non-unit) twist 6-vector (v, w)."""
    rho = np.asarray(rho, dtype=float)
    v, w = rho[:3], rho[3:]
    angle = np.linalg.norm(w)
    if angle < _SMALL_ANGLE:
        return RigidTransform(np.eye(3), v)
    return exp_twist(Twist(w / angle, v / angle), angle)

