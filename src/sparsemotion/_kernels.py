"""Hot numeric kernels, numba-jitted by default.

Set the environment variable ``SPARSEMOTION_NUMBA=0`` before import to run
the pure-numpy versions instead (useful for debugging and as a fallback on
platforms without a working numba install). ``benchmarks/bench_kernels.py``
times the two lanes against each other.
"""

from __future__ import annotations

import os

import numpy as np


def _rotation_about_axis(axis, theta):
    """Rodrigues rotation about a unit axis."""
    c = np.cos(theta)
    s = np.sin(theta)
    one_c = 1.0 - c
    x, y, z = axis[0], axis[1], axis[2]
    R = np.empty((3, 3))
    R[0, 0] = c + x * x * one_c
    R[0, 1] = x * y * one_c - z * s
    R[0, 2] = x * z * one_c + y * s
    R[1, 0] = y * x * one_c + z * s
    R[1, 1] = c + y * y * one_c
    R[1, 2] = y * z * one_c - x * s
    R[2, 0] = z * x * one_c - y * s
    R[2, 1] = z * y * one_c + x * s
    R[2, 2] = c + z * z * one_c
    return R


def _fk_chain(parents, offsets, axes, Rc, tc, theta):
    """Per-joint world rotation/translation along the kinematic tree.

    Joint j's frame is parent frame * translate(offset_j) * rot(axis_j, theta_j);
    parent -1 denotes the camera-to-root transform (Rc, tc).
    """
    d = parents.shape[0]
    R = np.empty((d, 3, 3))
    t = np.empty((d, 3))
    for j in range(d):
        p = parents[j]
        if p < 0:
            Rp = Rc
            tp = tc
        else:
            Rp = R[p]
            tp = t[p]
        t[j] = tp + Rp @ offsets[j]
        R[j] = Rp @ _rotation_about_axis(axes[j], theta[j])
    return R, t


def _landmark_points(R, t, lmk_joint, lmk_local):
    n = lmk_joint.shape[0]
    pts = np.empty((n, 3))
    for i in range(n):
        j = lmk_joint[i]
        pts[i] = t[j] + R[j] @ lmk_local[i]
    return pts


def _articulated_jacobian(R, t, axes, ancestry, pts):
    """Geometric Jacobian: column j maps theta_j rate to 3D landmark velocity.

    Column j for landmark i is w_j x (p_i - t_j) with w_j the world-frame
    joint axis, zero when joint j is not on landmark i's parent chain.
    """
    d = axes.shape[0]
    n = pts.shape[0]
    J = np.zeros((3 * n, d))
    for j in range(d):
        w = R[j] @ axes[j]
        for i in range(n):
            if ancestry[j, i]:
                rx = pts[i, 0] - t[j, 0]
                ry = pts[i, 1] - t[j, 1]
                rz = pts[i, 2] - t[j, 2]
                J[3 * i + 0, j] = w[1] * rz - w[2] * ry
                J[3 * i + 1, j] = w[2] * rx - w[0] * rz
                J[3 * i + 2, j] = w[0] * ry - w[1] * rx
    return J


_IMPLS = {
    "rotation_about_axis": _rotation_about_axis,
    "fk_chain": _fk_chain,
    "landmark_points": _landmark_points,
    "articulated_jacobian": _articulated_jacobian,
}

NUMBA_ENABLED = os.environ.get("SPARSEMOTION_NUMBA", "1").lower() not in ("0", "false", "no")

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    _rotation_about_axis = njit(cache=True)(_rotation_about_axis)
    _fk_chain = njit(cache=True)(_fk_chain)
    _landmark_points = njit(cache=True)(_landmark_points)
    _articulated_jacobian = njit(cache=True)(_articulated_jacobian)

rotation_about_axis = _rotation_about_axis
fk_chain = _fk_chain
landmark_points = _landmark_points
articulated_jacobian = _articulated_jacobian
