"""Minimal SE(3)/se(3) primitives: skew operators, rigid transforms and
the exponential of a twist 6-vector.

Rotations are stored as 3x3 matrices.  All operations are pure functions on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SMALL_ANGLE = 1e-8


def skew(p) -> np.ndarray:
    """Skew-symmetric matrix such that skew(p) @ q == cross(p, q)."""
    x, y, z = p
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True, slots=True)
class RigidTransform:
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def is_valid(self, tol: float) -> bool:
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


def exp_twist_vector(rho) -> RigidTransform:
    """Exponential of an arbitrary (non-unit) twist 6-vector (v, w): the
    closed form of the unit twist (v, w)/|w| through the angle |w|, or the
    translation v when |w| is below _SMALL_ANGLE."""
    rho = np.asarray(rho, dtype=float)
    v, w = rho[:3], rho[3:]
    angle = np.linalg.norm(w)
    if angle < _SMALL_ANGLE:
        return RigidTransform(np.eye(3), v)
    w, v = w / angle, v / angle
    K = skew(w)
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
    t = (np.eye(3) - R) @ np.cross(w, v) + np.outer(w, w) @ v * angle
    return RigidTransform(R, t)
