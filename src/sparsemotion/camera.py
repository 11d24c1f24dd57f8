"""Perspective projection, its differential, assembly of the full
differential observation system, and its rigid elimination (reduce_system,
one factorization per system, read by the solvers and by certification).

The core operates in normalized (intrinsics-free) coordinates; pixel-space
inputs are converted at ingestion through CameraModel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_number
from .kinematics import Pose, Skeleton, fk_arrays, jacobian_from_fk, rigid_jacobian

RANK_TOL = 1e-10  # singular values at or below this share of the largest count as zero


class AssemblyError(InputError):
    """System assembly preconditions violated."""


class DepthError(AssemblyError):
    """Point too close to (or behind) the camera plane."""


class RankDeficientError(AssemblyError):
    """Rigid Jacobian block A does not have full column rank."""


@dataclass(frozen=True)
class CameraModel:
    focal: float  # pixels
    principal: np.ndarray = field(default_factory=lambda: np.zeros(2))  # pixels
    min_depth: float = 1e-3  # model length units

    def __post_init__(self):
        try:
            object.__setattr__(self, "principal", np.asarray(self.principal, dtype=float))
        except (TypeError, ValueError) as e:
            raise InputError(f"principal must be 2 finite numbers: {e}") from e
        if not 0 < check_number(self.focal, "focal") < np.inf:
            raise InputError("focal must be positive and finite")
        if not 0 < check_number(self.min_depth, "min_depth") < np.inf:
            raise InputError("min_depth must be positive and finite")
        if self.principal.shape != (2,) or not np.all(np.isfinite(self.principal)):
            raise InputError("principal must be 2 finite numbers")

    def to_pixels(self, uv_norm) -> np.ndarray:
        return self.focal * np.asarray(uv_norm, dtype=float) + self.principal

    def to_normalized(self, uv_px) -> np.ndarray:
        return (np.asarray(uv_px, dtype=float) - self.principal) / self.focal


@dataclass(frozen=True)
class RigidReduction:
    """y = A rho + B w with the rigid block projected out (reduce_system).

    Solutions of Btilde w = (I - QQ^T) y, Btilde = (I - QQ^T) B, are exactly
    the articulated rates for which some rigid rate satisfies the equality.
    The rows of Vt split R^d into the numerical row space of Btilde and its
    null space, the ambiguity subspace of exact-recovery certification.
    """

    Q: np.ndarray  # 2N' x 6, orthonormal basis of span(A)
    rigid_sv: np.ndarray  # (6,) singular values of A, descending
    rigid_vt: np.ndarray  # 6 x 6 right singular vectors of A
    U: np.ndarray  # 2N' x r, left singular vectors of Btilde on its range
    sv: np.ndarray  # (r,) singular values of Btilde above the cut-off
    Vt: np.ndarray  # d x d right singular vectors of Btilde

    @property
    def row_space(self) -> np.ndarray:
        """d x r orthonormal basis of the numerical row space of Btilde."""
        return self.Vt[: self.sv.size].T

    @property
    def null_space(self) -> np.ndarray:
        """d x (d - r) orthonormal basis of {w : B w in span(A)}, C-contiguous.

        A copy rather than a view of Vt: the certification LPs built from a
        strided view differ in the last bits of their counterexamples.
        """
        return np.ascontiguousarray(self.Vt[self.sv.size :].T)

    def project_out(self, y) -> np.ndarray:
        """(I - QQ^T) y: the observation without its rigid component."""
        return y - self.Q @ (self.Q.T @ y)

    def min_norm(self, y) -> np.ndarray:
        """Minimum-l2-norm w solving Btilde w = (I - QQ^T) y in the row space."""
        return self.row_space @ ((self.U.T @ self.project_out(y)) / self.sv)

    def rigid_rates(self, r) -> np.ndarray:
        """Least-squares rho of A rho = r (unique by full column rank)."""
        return self.rigid_vt.T @ ((self.Q.T @ r) / self.rigid_sv)


@dataclass(frozen=True)
class SystemMatrices:
    A: np.ndarray  # 2N' x 6, projected rigid Jacobian
    B: np.ndarray  # 2N' x d, projected articulated Jacobian
    visible_index: np.ndarray  # row pair (2i, 2i+1) belongs to landmark visible_index[i]
    reduction: RigidReduction  # reduce_system(A, B)


def in_view(points, visible, cam: CameraModel) -> np.ndarray:
    """Flags of the landmarks at points (N, 3) that a frame observes: flagged
    visible (N booleans) and at depth >= cam.min_depth."""
    return visible & (points[:, 2] >= cam.min_depth)


def project(p, cam: CameraModel) -> np.ndarray:
    """Normalized perspective projection (x/z, y/z) of (..., 3) points."""
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z < cam.min_depth):
        raise DepthError(f"depth {np.min(z):.3g} below minimum {cam.min_depth:.3g}")
    return p[..., :2] / z[..., None]


def stacked_projection_blocks(points, min_depth: float = CameraModel.min_depth) -> np.ndarray:
    """Block-diagonal 2N x 3N stacking of the projection differentials,
    block i = [[1/z, 0, -x/z^2], [0, 1/z, -y/z^2]] at point i = (x, y, z)."""
    x, y, z = np.atleast_2d(np.asarray(points, dtype=float)).T
    if np.any(z < min_depth):
        raise DepthError(f"depth {np.min(z):.3g} below minimum {min_depth:.3g}")
    # libm's pow per element, as a scalar z**2 takes it, so each block is the
    # per-point formula to the bit; an array's z**2 squares instead, which
    # can differ in the last bit
    z2 = np.float_power(z, 2)
    i = np.arange(z.size)
    M = np.zeros((z.size, 2, z.size, 3))
    M[i, 0, i, 0] = M[i, 1, i, 1] = 1.0 / z
    M[i, 0, i, 2], M[i, 1, i, 2] = -x / z2, -y / z2
    return M.reshape(2 * z.size, 3 * z.size)


def stacked_projection_kernel(points, min_depth: float = CameraModel.min_depth) -> np.ndarray:
    """3N x N matrix whose columns (e_i kron p_i) span the null space of
    the stacked projection differential: sliding points along sightlines."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if np.any(pts[:, 2] < min_depth):
        raise DepthError(f"landmark {np.argmax(pts[:, 2] < min_depth)} depth below minimum")
    K = np.zeros((n, 3, n))
    K[np.arange(n), :, np.arange(n)] = pts
    return K.reshape(3 * n, n)


def assemble_system(
    skel: Skeleton, pose: Pose, cam: CameraModel, visible=None
) -> SystemMatrices:
    """Assemble A = M Gamma (2N'x6) and B = M J (2N'xd) over the landmarks in
    view (in_view): a landmark nearer than cam.min_depth has no rows.

    Requires at least 3 such landmarks (else AssemblyError).  A needs them
    not collinear as well: a rotation about their common line moves none of
    them, so reduce_system finds A rank deficient and raises
    RankDeficientError.
    """
    n = skel.n_landmarks
    if visible is None:
        visible = np.ones(n, dtype=bool)
    visible = np.asarray(visible, dtype=bool)
    if visible.shape != (n,):
        raise AssemblyError("visibility flag count does not match landmarks")
    R, t, pts = fk_arrays(skel, pose)
    idx = np.flatnonzero(in_view(pts, visible, cam))
    if idx.size < 3:
        raise AssemblyError(f"only {idx.size} visible landmarks, need at least 3")
    vpts = pts[idx]
    J = jacobian_from_fk(skel, R, t, pts)
    G = rigid_jacobian(pts)
    rows3 = (3 * idx[:, None] + np.arange(3)).ravel()
    M = stacked_projection_blocks(vpts, cam.min_depth)
    A = M @ G[rows3]
    B = M @ J[rows3]
    return SystemMatrices(
        A=A,
        B=B,
        visible_index=idx,
        reduction=reduce_system(A, B),
    )


def reduce_system(A, B) -> RigidReduction:
    """Factor y = A rho + B w once for every solver and certificate.

    Takes the thin SVD of A, whose singular values must all exceed
    RANK_TOL * sigma_max (else RankDeficientError), and the full SVD of
    Btilde = (I - QQ^T) B, whose singular values at or below
    RANK_TOL * max(sigma_max, 1) count as zero.
    """
    Q, rigid_sv, rigid_vt = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    if rigid_sv[-1] <= RANK_TOL * rigid_sv[0]:
        raise RankDeficientError("rigid Jacobian block is rank deficient")
    B = np.asarray(B, dtype=float)
    U, sv, Vt = np.linalg.svd(B - Q @ (Q.T @ B), full_matrices=True)
    cut = RANK_TOL * max(sv[0], 1.0)
    r = int(np.sum(sv > cut))
    U = np.ascontiguousarray(U[:, :r])  # a copy, so the full U is freed
    return RigidReduction(Q, rigid_sv, rigid_vt, U, sv[:r], Vt)
