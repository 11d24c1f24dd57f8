"""Numeric kernels of forward kinematics and the articulated Jacobian.

Plain numpy, one lane: per-joint rotations, landmark points and the
Jacobian are computed as whole-array expressions; only the chain product
along the kinematic tree loops over joints, parents first.  The expressions
are the per-element formulas of a scalar loop, so the results do not depend
on how the work is batched.  ``perfbench/`` times these kernels inside the
end-to-end workloads.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench's run record; there is no compiled lane.
NUMBA_ENABLED = False


def axis_rotations(axes, theta):
    """Rodrigues rotations (d,3,3) about unit axes (d,3) by angles (d,)."""
    c = np.cos(theta)
    s = np.sin(theta)
    one_c = 1.0 - c
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    R = np.empty((theta.shape[0], 3, 3))
    R[:, 0, 0] = c + x * x * one_c
    R[:, 0, 1] = x * y * one_c - z * s
    R[:, 0, 2] = x * z * one_c + y * s
    R[:, 1, 0] = y * x * one_c + z * s
    R[:, 1, 1] = c + y * y * one_c
    R[:, 1, 2] = y * z * one_c - x * s
    R[:, 2, 0] = z * x * one_c - y * s
    R[:, 2, 1] = z * y * one_c + x * s
    R[:, 2, 2] = c + z * z * one_c
    return R


def fk_chain(parents, offsets, axes, Rc, tc, theta):
    """Per-joint world rotation/translation along the kinematic tree.

    Joint j's frame is parent frame * translate(offset_j) * rot(axis_j, theta_j);
    parent -1 denotes the camera-to-root transform (Rc, tc).
    """
    local = axis_rotations(axes, theta)
    d = parents.shape[0]
    R = np.empty((d, 3, 3))
    t = np.empty((d, 3))
    for j in range(d):
        p = parents[j]
        Rp, tp = (Rc, tc) if p < 0 else (R[p], t[p])
        t[j] = tp + Rp @ offsets[j]
        R[j] = Rp @ local[j]
    return R, t


def landmark_points(R, t, lmk_joint, lmk_local):
    """Landmark positions (N,3): each local point in its joint's frame."""
    return t[lmk_joint] + (R[lmk_joint] @ lmk_local[:, :, None])[:, :, 0]


def articulated_jacobian(R, t, axes, ancestry, pts):
    """Geometric Jacobian: column j maps theta_j rate to 3D landmark velocity.

    Column j for landmark i is w_j x (p_i - t_j) with w_j the world-frame
    joint axis, zero when joint j is not on landmark i's parent chain.
    """
    w = (R @ axes[:, :, None])[:, None, :, 0]  # (d, 1, 3)
    r = pts[None, :, :] - t[:, None, :]  # (d, N, 3)
    cross = np.stack(
        [
            w[..., 1] * r[..., 2] - w[..., 2] * r[..., 1],
            w[..., 2] * r[..., 0] - w[..., 0] * r[..., 2],
            w[..., 0] * r[..., 1] - w[..., 1] * r[..., 0],
        ],
        axis=-1,
    )
    cross = np.where(ancestry[:, :, None], cross, 0.0)
    d, n = ancestry.shape
    return cross.transpose(1, 2, 0).reshape(3 * n, d)
