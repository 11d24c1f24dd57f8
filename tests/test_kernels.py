"""The vectorized kernels and block builders must reproduce the scalar
loop formulas below exactly: same expressions per element, so equal to the
last bit."""

import itertools

import numpy as np

from sparsemotion import camera, kinematics
from sparsemotion.camera import (
    assemble_system,
    projection_jacobian,
    stacked_projection_blocks,
    stacked_projection_kernel,
)
from sparsemotion.kinematics import Pose, articulated_jacobian, fk_arrays, rigid_jacobian
from sparsemotion.liegroup import exp_twist_vector, skew

from conftest import in_bounds_pose


def ref_rotation_about_axis(axis, theta):
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


def ref_fk_chain(parents, offsets, axes, Rc, tc, theta):
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
        R[j] = Rp @ ref_rotation_about_axis(axes[j], theta[j])
    return R, t


def ref_landmark_points(R, t, lmk_joint, lmk_local):
    n = lmk_joint.shape[0]
    pts = np.empty((n, 3))
    for i in range(n):
        j = lmk_joint[i]
        pts[i] = t[j] + R[j] @ lmk_local[i]
    return pts


def ref_articulated_jacobian(R, t, axes, ancestry, pts):
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


def ref_rigid_jacobian(pts):
    n = pts.shape[0]
    G = np.zeros((3 * n, 6))
    for i in range(n):
        G[3 * i : 3 * i + 3, :3] = np.eye(3)
        G[3 * i : 3 * i + 3, 3:] = -skew(pts[i])
    return G


def ref_stacked_projection_blocks(pts):
    n = pts.shape[0]
    M = np.zeros((2 * n, 3 * n))
    for i in range(n):
        M[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] = projection_jacobian(pts[i])
    return M


def ref_stacked_projection_kernel(pts):
    n = pts.shape[0]
    K = np.zeros((3 * n, n))
    for i in range(n):
        K[3 * i : 3 * i + 3, i] = pts[i]
    return K


def test_rotation_kernel_matches_reference():
    rng = np.random.default_rng(0)
    axes = rng.standard_normal((50, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    theta = rng.uniform(-np.pi, np.pi, 50)
    batched = kinematics._axis_rotations(axes, theta)
    for k in range(50):
        np.testing.assert_array_equal(
            batched[k], ref_rotation_about_axis(axes[k], theta[k]))


def test_fk_and_jacobian_kernels_match_reference(skel40, toy8, toy12):
    rng = np.random.default_rng(1)
    for skel, _ in itertools.product((skel40, toy8, toy12), range(20)):
        pose = in_bounds_pose(skel, rng)
        # a general camera-to-root rotation, not only the identity
        Tc = exp_twist_vector(rng.uniform(-0.5, 0.5, 6)).compose(pose.camera_to_root)
        pose = Pose(Tc, pose.theta)
        R, t, pts = fk_arrays(skel, pose)
        R2, t2 = ref_fk_chain(
            skel.parents, skel.offsets, skel.axes, pose.camera_to_root.rotation,
            pose.camera_to_root.translation, pose.theta)
        pts2 = ref_landmark_points(R2, t2, skel.lmk_joint, skel.lmk_local)
        np.testing.assert_array_equal(R, R2)
        np.testing.assert_array_equal(t, t2)
        np.testing.assert_array_equal(pts, pts2)
        np.testing.assert_array_equal(
            articulated_jacobian(skel, pose),
            ref_articulated_jacobian(R2, t2, skel.axes, skel.ancestry, pts2))


def test_block_builders_and_assembly_match_reference(skel40, toy8, toy12,
                                                    cam1145):
    rng = np.random.default_rng(2)
    for skel, _ in itertools.product((skel40, toy8, toy12), range(20)):
        pose = in_bounds_pose(skel, rng)
        R, t, pts = fk_arrays(skel, pose)
        G = ref_rigid_jacobian(pts)
        M = ref_stacked_projection_blocks(pts)
        np.testing.assert_array_equal(rigid_jacobian(pts), G)
        np.testing.assert_array_equal(stacked_projection_blocks(pts), M)
        np.testing.assert_array_equal(stacked_projection_kernel(pts),
                                      ref_stacked_projection_kernel(pts))
        sys_m = assemble_system(skel, pose, cam1145)
        np.testing.assert_array_equal(sys_m.A, M @ G)
        np.testing.assert_array_equal(
            sys_m.B,
            M @ ref_articulated_jacobian(R, t, skel.axes, skel.ancestry, pts))
    # enough points that a last-bit difference in 1/z or x/z^2 shows
    for _ in range(100):
        pts = rng.uniform([-2, -2, 0.5], [2, 2, 8], (20, 3))
        np.testing.assert_array_equal(stacked_projection_blocks(pts),
                                      ref_stacked_projection_blocks(pts))


def test_assemble_system_runs_forward_kinematics_once(skel40, skel40_pose,
                                                      cam1145, monkeypatch):
    """Counted at both bindings, so a Jacobian that reruns FK shows."""
    calls = []

    def counting_fk(*args):
        calls.append(1)
        return fk_arrays(*args)

    monkeypatch.setattr(camera, "fk_arrays", counting_fk)
    monkeypatch.setattr(kinematics, "fk_arrays", counting_fk)
    assemble_system(skel40, skel40_pose, cam1145)
    assert len(calls) == 1
