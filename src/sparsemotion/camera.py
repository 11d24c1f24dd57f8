"""Perspective projection, its differential, and assembly of the full
differential observation system.

The core operates in normalized (intrinsics-free) coordinates; pixel-space
inputs are converted at ingestion through CameraModel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import Pose, Skeleton, fk_arrays, jacobian_from_fk, rigid_jacobian

_COLLINEAR_TOL = 1e-6


class DepthError(ValueError):
    """Point too close to (or behind) the camera plane."""


class AssemblyError(ValueError):
    """System assembly preconditions violated."""


@dataclass(frozen=True)
class CameraModel:
    focal: float  # pixels
    principal: np.ndarray = field(default_factory=lambda: np.zeros(2))  # pixels
    min_depth: float = 1e-3  # model length units

    def __post_init__(self):
        object.__setattr__(self, "principal", np.asarray(self.principal, dtype=float))
        if self.focal <= 0:
            raise ValueError("focal must be positive")
        if self.min_depth <= 0:
            raise ValueError("min_depth must be positive")

    def to_pixels(self, uv_norm) -> np.ndarray:
        return self.focal * np.asarray(uv_norm, dtype=float) + self.principal

    def to_normalized(self, uv_px) -> np.ndarray:
        return (np.asarray(uv_px, dtype=float) - self.principal) / self.focal


@dataclass(frozen=True)
class Observation:
    y: np.ndarray  # stacked (udot, vdot) per visible landmark, normalized
    visible: np.ndarray  # N boolean flags
    frame_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "visible", np.asarray(self.visible, dtype=bool))


@dataclass(frozen=True)
class SystemMatrices:
    A: np.ndarray  # 2N' x 6, projected rigid Jacobian
    B: np.ndarray  # 2N' x d, projected articulated Jacobian
    n_visible: int
    conditioning: float  # smallest singular value of A
    points: np.ndarray  # (N', 3) visible landmark positions
    visible_index: np.ndarray  # indices of visible landmarks


def project(p, cam: CameraModel) -> np.ndarray:
    """Normalized perspective projection (x/z, y/z) of (..., 3) points."""
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z < cam.min_depth):
        raise DepthError(f"depth {np.min(z):.3g} below minimum {cam.min_depth:.3g}")
    return p[..., :2] / z[..., None]


def projection_jacobian(p, min_depth: float = 1e-3) -> np.ndarray:
    """2x3 differential of the normalized projection at p."""
    x, y, z = np.asarray(p, dtype=float)
    if z < min_depth:
        raise DepthError(f"depth {z:.3g} below minimum {min_depth:.3g}")
    return np.array([[1.0 / z, 0.0, -x / z**2], [0.0, 1.0 / z, -y / z**2]])


def stacked_projection_blocks(points, min_depth: float = 1e-3) -> np.ndarray:
    """Block-diagonal 2N x 3N stacking of projection differentials."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    M = np.zeros((2 * n, 3 * n))
    for i in range(n):
        M[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] = projection_jacobian(pts[i], min_depth)
    return M


def stacked_projection_kernel(points, min_depth: float = 1e-3) -> np.ndarray:
    """3N x N matrix whose columns (e_i kron p_i) span the null space of
    the stacked projection differential: sliding points along sightlines."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    K = np.zeros((3 * n, n))
    for i in range(n):
        if pts[i, 2] < min_depth:
            raise DepthError(f"landmark {i} depth below minimum")
        K[3 * i : 3 * i + 3, i] = pts[i]
    return K


def are_collinear(points, tol: float = _COLLINEAR_TOL) -> bool:
    """Scale-free collinearity test on 3D points via second singular value."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0:
        return True
    return sv[1] / sv[0] <= tol


def assemble_system(
    skel: Skeleton, pose: Pose, cam: CameraModel, visible=None
) -> SystemMatrices:
    """Assemble A = M Gamma (2N'x6) and B = M J (2N'xd) over visible landmarks.

    Requires at least 3 visible, non-collinear landmarks with valid depths;
    their rows guarantee a trivial null space for A.
    """
    n = skel.n_landmarks
    if visible is None:
        visible = np.ones(n, dtype=bool)
    visible = np.asarray(visible, dtype=bool)
    if visible.shape != (n,):
        raise AssemblyError("visibility flag count does not match landmarks")
    R, t, pts = fk_arrays(skel, pose)
    # near-plane landmarks are dropped rather than erroring the frame
    visible = visible & (pts[:, 2] >= cam.min_depth)
    idx = np.flatnonzero(visible)
    if idx.size < 3:
        raise AssemblyError(f"only {idx.size} visible landmarks, need at least 3")
    vpts = pts[idx]
    if are_collinear(vpts):
        raise AssemblyError("visible landmarks are collinear")
    J = jacobian_from_fk(skel, R, t, pts)
    G = rigid_jacobian(pts)
    rows3 = np.concatenate([[3 * i, 3 * i + 1, 3 * i + 2] for i in idx])
    M = stacked_projection_blocks(vpts, cam.min_depth)
    A = M @ G[rows3]
    B = M @ J[rows3]
    sv = np.linalg.svd(A, compute_uv=False)
    return SystemMatrices(
        A=A,
        B=B,
        n_visible=idx.size,
        conditioning=float(sv[-1]),
        points=vpts,
        visible_index=idx,
    )
