import json
import math

import numpy as np
import pytest

from sparsemotion.kinematics import (
    Pose,
    Skeleton,
    SkeletonError,
    articulated_jacobian,
    clamp_angles,
    default_skeleton,
    fk_arrays,
    load_skeleton,
    rigid_jacobian,
)
from sparsemotion.liegroup import RigidTransform, exp_twist_vector

from conftest import in_bounds_pose, toy8_config


def single_joint_config():
    return json.dumps(dict(
        name="mini",
        joints=[dict(id=0, name="j", parent=-1, offset=[0, 0, 0],
                     dof=[dict(axis=[0, 0, 1], min_deg=-180, max_deg=180)])],
        landmarks=[dict(id=0, joint=0, local=[1.0, 0, 0])],
    ))


class TestLoadSkeleton:
    def test_default_dimensions(self):
        skel = default_skeleton()
        assert skel.dof == 40
        assert skel.n_landmarks == 13

    def test_minimal_tree(self):
        skel = load_skeleton(single_joint_config())
        assert skel.dof == 1
        assert skel.n_landmarks == 1

    def test_self_parent_cycle(self):
        cfg = json.loads(single_joint_config())
        cfg["joints"][0]["parent"] = 0
        with pytest.raises(SkeletonError, match="cycle"):
            load_skeleton(json.dumps(cfg))

    def test_duplicate_id(self):
        cfg = json.loads(toy8_config())
        cfg["joints"][1]["id"] = 0
        with pytest.raises(SkeletonError, match="duplicate"):
            load_skeleton(json.dumps(cfg))

    def test_zero_axis(self):
        cfg = json.loads(single_joint_config())
        cfg["joints"][0]["dof"][0]["axis"] = [0, 0, 0]
        with pytest.raises(SkeletonError, match="axis"):
            load_skeleton(json.dumps(cfg))

    def test_inverted_bounds(self):
        cfg = json.loads(single_joint_config())
        cfg["joints"][0]["dof"][0].update(min_deg=10, max_deg=-10)
        with pytest.raises(SkeletonError, match="bound"):
            load_skeleton(json.dumps(cfg))

    def test_unknown_landmark_joint(self):
        cfg = json.loads(single_joint_config())
        cfg["landmarks"][0]["joint"] = 9
        with pytest.raises(SkeletonError):
            load_skeleton(json.dumps(cfg))

    def test_forward_parent_reference(self):
        cfg = json.loads(toy8_config())
        cfg["joints"][1]["parent"] = 5
        with pytest.raises(SkeletonError, match="parent"):
            load_skeleton(json.dumps(cfg))

    def test_duplicate_landmark_id(self):
        cfg = json.loads(arm_config())
        cfg["landmarks"][1]["id"] = 2
        with pytest.raises(SkeletonError, match="duplicate landmark id 2"):
            load_skeleton(json.dumps(cfg))

    def test_landmark_ids_not_contiguous(self):
        cfg = json.loads(arm_config())
        cfg["landmarks"][3]["id"] = 7
        with pytest.raises(SkeletonError, match="contiguous"):
            load_skeleton(json.dumps(cfg))

    @pytest.mark.parametrize("path, message", [
        (("joints", 1, "id"), "joint entry 1: missing key 'id'"),
        (("joints", 1, "parent"), "joint 1: missing key 'parent'"),
        (("joints", 1, "offset"), "joint 1: missing key 'offset'"),
        (("joints", 1, "dof", 0, "axis"), "joint 1 dof 0: missing key 'axis'"),
        (("joints", 1, "dof", 0, "min_deg"), "joint 1 dof 0: missing key 'min_deg'"),
        (("joints", 1, "dof", 0, "max_deg"), "joint 1 dof 0: missing key 'max_deg'"),
        (("landmarks", 2, "id"), "landmark entry 2: missing key 'id'"),
        (("landmarks", 2, "joint"), "landmark 2: missing key 'joint'"),
        (("landmarks", 2, "local"), "landmark 2: missing key 'local'"),
    ], ids=["joint-id", "joint-parent", "joint-offset", "dof-axis",
            "dof-min_deg", "dof-max_deg", "landmark-id", "landmark-joint",
            "landmark-local"])
    def test_missing_key_named(self, path, message):
        cfg = json.loads(toy8_config())
        entry = cfg
        for step in path[:-1]:
            entry = entry[step]
        del entry[path[-1]]
        with pytest.raises(SkeletonError) as info:
            load_skeleton(json.dumps(cfg))
        assert str(info.value) == message

    def test_parse_failure(self):
        with pytest.raises(SkeletonError, match="parse"):
            load_skeleton("{not json")

    def test_multi_dof_expansion_order(self):
        skel = default_skeleton()
        hip = [j for j, n in enumerate(skel.joint_names) if n.startswith("hip")]
        assert [skel.joint_names[j] for j in hip] == ["hip.0", "hip.1", "hip.2"]
        # declared z, x, y rotation order
        np.testing.assert_allclose(skel.axes[hip[0]], [0, 0, 1])
        np.testing.assert_allclose(skel.axes[hip[1]], [1, 0, 0])
        np.testing.assert_allclose(skel.axes[hip[2]], [0, 1, 0])

    def test_degrees_converted_to_radians(self):
        skel = load_skeleton(single_joint_config())
        assert abs(skel.bounds_min[0] + math.pi) < 1e-12
        assert abs(skel.bounds_max[0] - math.pi) < 1e-12


def arm_config():
    """6-DoF rig: a root, a 3-DoF shoulder, an elbow and a neck.  The
    shoulder's first axis and the elbow's axis are not unit length, the
    landmarks are listed out of id order, and landmark 0 is on the shoulder."""
    def dof(axis, lo, hi):
        return dict(axis=axis, min_deg=lo, max_deg=hi)
    return json.dumps(dict(
        name="arm",
        joints=[
            dict(id=0, name="root", parent=-1, offset=[0, 0, 0],
                 dof=[dof([0, 0, 1], -180, 180)]),
            dict(id=1, name="shoulder", parent=0, offset=[0.5, 0, 0],
                 dof=[dof([0, 0, 2], -90, 90), dof([1, 0, 0], -45, 45),
                      dof([0, 1, 0], -30, 60)]),
            dict(id=2, name="elbow", parent=1, offset=[0.3, 0, 0],
                 dof=[dof([0, 3, 4], 0, 150)]),
            dict(id=3, name="neck", parent=0, offset=[0, 0.2, 0],
                 dof=[dof([1, 0, 0], -20, 20)]),
        ],
        landmarks=[
            dict(id=2, joint=2, local=[0.25, 0, 0]),
            dict(id=0, joint=1, local=[0.1, 0, 0]),
            dict(id=1, joint=3, local=[0, 0.1, 0]),
            dict(id=3, joint=0, local=[0, 0, 0.1]),
        ],
    ))


class TestSkeletonArrays:
    """load_skeleton's arrays, entry by entry, on arm_config."""

    @pytest.fixture(scope="class")
    def arm(self):
        return load_skeleton(arm_config())

    def test_joint_names_expand_multi_dof(self, arm):
        assert arm.name == "arm"
        assert arm.joint_names == ("root", "shoulder.0", "shoulder.1",
                                   "shoulder.2", "elbow", "neck")
        assert (arm.dof, arm.n_landmarks) == (6, 4)

    def test_sub_joints_chain_at_zero_offset(self, arm):
        assert arm.parents.dtype == np.int64
        np.testing.assert_array_equal(arm.parents, [-1, 0, 1, 2, 3, 0])
        assert arm.offsets.dtype == np.float64
        np.testing.assert_array_equal(arm.offsets, [
            [0, 0, 0], [0.5, 0, 0], [0, 0, 0], [0, 0, 0], [0.3, 0, 0],
            [0, 0.2, 0]])

    def test_axes_normalized(self, arm):
        assert arm.axes.dtype == np.float64
        np.testing.assert_array_equal(arm.axes, [
            [0, 0, 1], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0.6, 0.8],
            [1, 0, 0]])

    def test_bounds_in_radians(self, arm):
        lo = [-180, -90, -45, -30, 0, -20]
        hi = [180, 90, 45, 60, 150, 20]
        np.testing.assert_array_equal(arm.bounds_min,
                                      [math.radians(a) for a in lo])
        np.testing.assert_array_equal(arm.bounds_max,
                                      [math.radians(a) for a in hi])

    def test_landmarks_placed_by_id(self, arm):
        """Landmark 0 sits on the shoulder, so on its last sub-joint (3)."""
        assert arm.lmk_joint.dtype == np.int64
        np.testing.assert_array_equal(arm.lmk_joint, [3, 5, 4, 0])
        assert arm.lmk_local.dtype == np.float64
        np.testing.assert_array_equal(arm.lmk_local, [
            [0.1, 0, 0], [0, 0.1, 0], [0.25, 0, 0], [0, 0, 0.1]])

    def test_ancestry(self, arm):
        assert arm.ancestry.dtype == np.bool_
        np.testing.assert_array_equal(arm.ancestry, [
            [1, 1, 1, 1],
            [1, 0, 1, 0],
            [1, 0, 1, 0],
            [1, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ])


class TestForwardKinematics:
    def test_reference_configuration_sums_offsets(self, toy8):
        pose = Pose(RigidTransform.identity(), np.zeros(toy8.dof))
        _, _, pts = fk_arrays(toy8, pose)
        # landmark 2 hangs off the chain base -> d -> e -> f -> g
        expected = np.array([0, -0.3, 0]) + [0, -0.3, 0] + [0, -0.25, 0] \
            + [0, -0.2, 0] + [0, -0.15, 0]
        np.testing.assert_allclose(pts[2], expected, atol=1e-14)

    def test_rigid_equivariance(self, skel40):
        rng = np.random.default_rng(0)
        theta = rng.uniform(skel40.bounds_min, skel40.bounds_max)
        base = Pose(RigidTransform.identity(), theta)
        moved = Pose(RigidTransform(np.eye(3), np.array([0.0, 0, 3])), theta)
        _, _, p0 = fk_arrays(skel40, base)
        _, _, p1 = fk_arrays(skel40, moved)
        np.testing.assert_allclose(p1, p0 + [0, 0, 3], atol=1e-12)

    def test_rotation_equivariance(self, skel40):
        rng = np.random.default_rng(1)
        theta = rng.uniform(skel40.bounds_min, skel40.bounds_max)
        dT = exp_twist_vector(0.8 * np.array([0.2, 0, 0.1, 0.0, 1, 0]))
        base = Pose(RigidTransform.identity(), theta)
        moved = Pose(dT, theta)
        _, _, p0 = fk_arrays(skel40, base)
        _, _, p1 = fk_arrays(skel40, moved)
        np.testing.assert_allclose(p1, p0 @ dT.rotation.T + dT.translation,
                                   atol=1e-12)

    def test_matches_dense_chain_product(self, skel40):
        """Independent FK oracle: recursive 4x4 homogeneous products."""
        rng = np.random.default_rng(2)
        theta = rng.uniform(skel40.bounds_min, skel40.bounds_max)
        pose = Pose(RigidTransform(np.eye(3), np.array([0.1, -0.2, 3.0])), theta)
        _, _, pts = fk_arrays(skel40, pose)

        mats = {}
        for j, p in enumerate(skel40.parents):
            parent = pose.camera_to_root.matrix() if p == -1 else mats[p]
            off = np.eye(4)
            off[:3, 3] = skel40.offsets[j]
            rot = exp_twist_vector(
                np.concatenate([np.zeros(3), theta[j] * skel40.axes[j]])).matrix()
            mats[j] = parent @ off @ rot
        for i, (j, local) in enumerate(zip(skel40.lmk_joint, skel40.lmk_local)):
            hom = mats[j] @ np.append(local, 1.0)
            np.testing.assert_allclose(pts[i], hom[:3], atol=1e-12)

    def test_root_transform_is_camera_to_root(self, toy8):
        pose = Pose(RigidTransform(np.eye(3), np.array([0.0, 0, 3])),
                    np.zeros(toy8.dof))
        _, t, _ = fk_arrays(toy8, pose)
        np.testing.assert_allclose(t[0], [0, 0, 3])

    def test_dimension_mismatch(self, toy8):
        with pytest.raises(ValueError):
            fk_arrays(toy8, Pose(RigidTransform.identity(), np.zeros(3)))


class TestArticulatedJacobian:
    def test_sparsity_matches_parent_chains(self, skel40):
        """Columns are zero exactly off the landmark's parent chain."""
        rng = np.random.default_rng(3)
        pose = in_bounds_pose(skel40, rng)
        J = articulated_jacobian(skel40, pose)
        # independent ancestry reconstruction from the joint tree
        for i, j in enumerate(skel40.lmk_joint):
            chain = set()
            while j != -1:
                chain.add(j)
                j = skel40.parents[j]
            rows = J[3 * i : 3 * i + 3]
            for col in range(skel40.dof):
                if col not in chain:
                    np.testing.assert_array_equal(rows[:, col], 0)

    def test_single_joint_unit_field(self):
        skel = load_skeleton(single_joint_config())
        pose = Pose(RigidTransform.identity(), np.zeros(1))
        J = articulated_jacobian(skel, pose)
        np.testing.assert_allclose(J[:, 0], [0, 1, 0], atol=1e-14)

    def test_matches_finite_differences(self, skel40):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(5):
            pose = in_bounds_pose(skel40, rng)
            J = articulated_jacobian(skel40, pose)
            for j in range(skel40.dof):
                tp, tm = pose.theta.copy(), pose.theta.copy()
                tp[j] += h
                tm[j] -= h
                _, _, pp = fk_arrays(skel40, Pose(pose.camera_to_root, tp))
                _, _, pm = fk_arrays(skel40, Pose(pose.camera_to_root, tm))
                fd = (pp - pm).ravel() / (2 * h)
                assert np.max(np.abs(J[:, j] - fd)) <= 1e-5

    def test_finite_everywhere(self, skel40):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pose = in_bounds_pose(skel40, rng, spread=3.0)
            J = articulated_jacobian(skel40, pose)
            assert np.all(np.isfinite(J))


class TestRigidJacobian:
    def test_origin_block(self):
        G = rigid_jacobian([[0.0, 0, 0]])
        np.testing.assert_array_equal(G[:, :3], np.eye(3))
        np.testing.assert_array_equal(G[:, 3:], 0)

    def test_single_point_kernel(self):
        """One point leaves a 3-dim null space of self-consistent screws."""
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = rng.uniform(-2, 2, 3)
            G = rigid_jacobian([p])
            K = np.vstack([np.cross(p, np.eye(3)).T, np.eye(3)])
            np.testing.assert_allclose(np.linalg.norm(G @ K), 0, atol=1e-12)

    def test_two_point_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p1 = rng.uniform(-2, 2, 3)
            p2 = rng.uniform(-2, 2, 3)
            if abs(p2[2] - p1[2]) < 1e-3:
                p2[2] += 1.0
            G = rigid_jacobian([p1, p2])
            k = np.concatenate([-np.cross(p2, p1), p2 - p1]) / (p2[2] - p1[2])
            np.testing.assert_allclose(np.linalg.norm(G @ k), 0, atol=1e-12)

    def test_three_noncollinear_points_trivial_kernel(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pts = rng.uniform(-2, 2, (3, 3))
            # enforce non-collinearity
            spread = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
            if spread[1] < 1e-2:
                continue
            G = rigid_jacobian(pts)
            smin = np.linalg.svd(G, compute_uv=False)[-1]
            assert smin > 1e-8

    def test_velocity_field_formula(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(-1, 1, 3)
        v, w = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        out = rigid_jacobian([p]) @ np.concatenate([v, w])
        np.testing.assert_allclose(out, v + np.cross(w, p), atol=1e-14)


class TestClampAngles:
    def test_inside_bounds_unchanged(self, skel40):
        rng = np.random.default_rng(10)
        theta = rng.uniform(skel40.bounds_min, skel40.bounds_max)
        np.testing.assert_array_equal(clamp_angles(theta, skel40), theta)

    def test_right_knee_clamped_to_150_degrees(self, skel40):
        idx = skel40.joint_names.index("right_knee")
        theta = np.zeros(skel40.dof)
        theta[idx] = math.radians(170.0)
        out = clamp_angles(theta, skel40)
        assert abs(out[idx] - math.radians(150.0)) < 1e-12

    def test_right_elbow_clamped_to_zero(self, skel40):
        idx = skel40.joint_names.index("right_elbow")
        theta = np.zeros(skel40.dof)
        theta[idx] = math.radians(10.0)
        out = clamp_angles(theta, skel40)
        assert out[idx] == 0.0

    def test_idempotent(self, skel40):
        rng = np.random.default_rng(11)
        theta = rng.uniform(-10, 10, skel40.dof)
        once = clamp_angles(theta, skel40)
        np.testing.assert_array_equal(clamp_angles(once, skel40), once)
